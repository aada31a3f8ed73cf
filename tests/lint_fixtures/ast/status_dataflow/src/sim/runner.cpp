// status-dataflow fixture, sim side: every way to mishandle a Status
// produced by the trace subsystem. Each flagged line carries an
// expect tag; the clean and suppressed cases below must stay silent
// or the self-test fails on the false positive.

#include "trace/reader.hpp"

// Violation: the first Status is overwritten before anything read it.
Status doubleStep() {
    Status status = loadBlock();
    status = verifyBlock(); // lint:expect status-dataflow
    return Status::wrap(5, "double step", status);
}

// Violation: stored, then never consulted.
void swallow() {
    Status status = loadBlock(); // lint:expect status-dataflow
    int unrelated = 0;
    (void)unrelated;
}

// Violation: a trace-subsystem Status returned verbatim from sim.
Status passThrough() {
    Status status = loadBlock();
    if (!status.isOk())
        return status; // lint:expect status-dataflow
    return Status::ok();
}

// Violation: direct unwrapped propagation across the boundary.
Status reload() {
    return loadBlock(); // lint:expect status-dataflow
}

// Clean: consulted, then re-raised with this layer's context.
Status wrapped() {
    Status status = loadBlock();
    if (status.isOk())
        return Status::ok();
    return Status::wrap(7, "reload failed", status);
}

// Suppressed: the probe's failure is expected and intentionally
// ignored.
void probeOnly() {
    // Warm-up probe: failure here only means the cache is cold, the
    // caller re-reads the block for real. lint:allow status-dataflow
    Status status = loadBlock();
}
