//! The trace recorder forwarding to a metrics registry. The exporter's
//! property tests live beside it, in `obs::trace`.

use std::sync::Arc;

use capmaestro_core::obs::trace::TraceRecorder;
use capmaestro_core::obs::Recorder;

/// The forwarding recorder keeps `Recorder` semantics intact for the
/// inner sink even while buffering trace events — spot-checked here
/// (not property-driven) because it needs a concrete registry.
#[test]
fn forwarded_registry_sees_every_metric_call() {
    use capmaestro_core::obs::MetricsRegistry;
    let registry = Arc::new(MetricsRegistry::new());
    let recorder = TraceRecorder::new().with_forward(registry.clone() as Arc<dyn Recorder>);
    recorder.counter_add(capmaestro_core::obs::names::ROUNDS_TOTAL, 5);
    recorder.gauge_set(capmaestro_core::obs::names::STALE_SERVERS, 3.0);
    let snap = registry.snapshot();
    assert_eq!(snap.counters[0].value, 5);
    assert_eq!(snap.gauges[0].value, 3.0);
}
