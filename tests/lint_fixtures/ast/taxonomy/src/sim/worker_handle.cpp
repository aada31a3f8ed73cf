// Seeded violations for the taxonomy checker (vpsim-analyze): a
// mini worker-exit taxonomy with deliberate drift. Parsed, never
// compiled. Lives at src/sim/worker_handle.cpp inside this fixture
// tree so the magic-exit-literal rule (worker exit files only) is
// active.

enum class StatusCode {
    kOk,
    kIo,
    kCorrupt,
    kCanceled,
    kTimeout,
    kInternal,
};

enum WorkerExitCode {
    kWorkerExitOk = 0,
    kWorkerExitIo = 41,
    kWorkerExitCorrupt = 20, // lint:expect taxonomy
    kWorkerExitTimeout = 44,
    kWorkerExitInternal = 45,
};

StatusCode classifyExit(int code) {
    switch (code) {
      case kWorkerExitOk: return StatusCode::kOk;
      case kWorkerExitIo: return StatusCode::kIo;
      case kWorkerExitCorrupt: return StatusCode::kCorrupt;
      case kWorkerExitTimeout: return StatusCode::kTimeout;
      case kWorkerExitInternal: return StatusCode::kInternal;
      case 99: return StatusCode::kIo; // lint:expect taxonomy
      default: return StatusCode::kInternal;
    }
}

int exitCodeForStatus(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return kWorkerExitOk;
      case StatusCode::kIo: return kWorkerExitIo;
      case StatusCode::kCorrupt: return kWorkerExitCorrupt;
      case StatusCode::kTimeout: return kWorkerExitIo; // lint:expect taxonomy
      case StatusCode::kCanceled: return kWorkerExitInternal;
      case StatusCode::kInternal: return kWorkerExitInternal;
    }
    return kWorkerExitInternal;
}

// Violation: a worker exiting with an integer the taxonomy never
// declared — the supervisor will classify it as kInternal and the
// failure class is lost.
void abortWorker() {
    ::_exit(77); // lint:expect taxonomy
}

// Suppressed: deliberate shell convention, outside the taxonomy.
void shellStyleExit() {
    // 126 is the shell's cannot-execute convention for exec wrappers,
    // intentionally not a WorkerExitCode. lint:allow taxonomy
    ::_exit(126);
}
