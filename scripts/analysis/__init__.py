"""vpsim-analyze: AST-level semantic analysis over compile_commands.json.

Four project-specific checkers enforce contracts that token-level
linting cannot see (docs/STATIC_ANALYSIS.md, "Layer 4"):

  span-lifetime     TraceSpan/TraceColumns invalidation on the next
                    nextBlock()/nextColumns()/reset() of their source,
                    and spans escaping their source's scope.
  status-dataflow   Status values stored and never read, overwritten
                    before read, or propagated across subsystem
                    boundaries without Status::wrap().
  lock-order        Global Mutex acquisition graph from MutexLock
                    nesting + ACQUIRE/REQUIRES/EXCLUDES annotations;
                    cycles and EXCLUDES violations.
  taxonomy          Worker-process exit-code constants vs. the StatusCode
                    enum and the classification switches: round-trip
                    consistency so the two can never drift.

The engine is frontend-agnostic: a libclang (clang.cindex) frontend is
used when the bindings and a compilation database are available, and a
self-contained internal C++ frontend (lexer + structural parser, no
dependencies beyond the Python stdlib) otherwise, so the pass gates
every tree ctest runs on. Both frontends produce the same semantic
model (model.py); the checkers never know which one ran.
"""

__version__ = "1.0"

CHECKERS = ["span-lifetime", "status-dataflow", "lock-order", "taxonomy"]
