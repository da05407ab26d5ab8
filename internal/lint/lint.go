// Package lint implements bmcastlint: static analyzers that machine-check
// the simulator's determinism and safety invariants on every build.
//
// The invariants (DESIGN.md §7):
//
//   - walltime: simulation code runs on sim-time only. Wall-clock reads
//     (time.Now, time.Since, time.Until) make runs unrepeatable.
//   - seededrand: all randomness flows from the experiment seed through an
//     injected *rand.Rand. The global math/rand functions and wall-clock
//     seeded sources are forbidden.
//   - simdrift: sim code must not race the Go scheduler: no go
//     statements, no real-time sleeps or timers, no multi-case selects.
//   - mapiter: map iteration order must not escape into ordered output
//     (returned slices, io.Writer streams) without a sort in between.
//   - pooledrelease: pooled records (sim event free-list, AoE request
//     pool, disk buffers) must not be touched after release.
//   - spanleak: a *trace.Span from Begin/BeginChild reaches End (or
//     escapes to a new owner) on every path out of the function.
//   - causerestore: a captured trace.SwapCause result is restored on
//     every path out of the function.
//   - framebalance: FramePool retains and releases balance on every path.
//
// The last four are path-sensitive: each is a flowRules value run by one
// flow harness (runFlow, flow.go), a forward dataflow analysis over the
// intra-function CFG built by repro/internal/lint/cfg, so early returns
// and branchy error paths are proven, not sampled (DESIGN.md §11).
//
// Violations are suppressed only by an explicit, line-anchored
// `//bmcast:allow <analyzer>` directive; see directive.go. A directive
// that suppresses nothing is itself reported.
package lint

import (
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzers is the bmcastlint suite in reporting order.
var Analyzers = []*analysis.Analyzer{
	WalltimeAnalyzer,
	SeededRandAnalyzer,
	SimDriftAnalyzer,
	MapIterAnalyzer,
	PooledReleaseAnalyzer,
	SpanLeakAnalyzer,
	CauseRestoreAnalyzer,
	FrameBalanceAnalyzer,
}

// AnalyzerNames returns the set of names a //bmcast:allow directive may
// reference.
func AnalyzerNames() map[string]bool {
	names := make(map[string]bool, len(Analyzers))
	for _, a := range Analyzers {
		names[a.Name] = true
	}
	return names
}

// modulePrefix is the import-path prefix of this module's own packages.
// Analyzers never fire outside it (go vet also hands the vettool every
// dependency package for fact extraction; those must stay silent).
const modulePrefix = "repro"

// simExempt lists module subtrees that are tooling, not simulation: the
// lint suite itself and the command-line drivers. Wall-clock time and
// ad-hoc randomness are legal there (drivers time real executions); the
// determinism analyzers skip them. mapiter and pooledrelease still apply.
var simExempt = []string{
	"repro/internal/lint",
	"repro/cmd",
	"repro/examples",
}

// normalizePkgPath strips the " [repro/foo.test]" suffix go vet appends to
// test variants of a package, so classification sees the plain path.
func normalizePkgPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

func hasPathPrefix(path, prefix string) bool {
	return path == prefix || (len(path) > len(prefix) &&
		path[:len(prefix)] == prefix && path[len(prefix)] == '/')
}

// InModule reports whether path is one of this module's own packages
// (including test variants). All analyzers are scoped to it.
func InModule(path string) bool {
	return hasPathPrefix(normalizePkgPath(path), modulePrefix)
}

// IsSimPackage reports whether the package at path is simulation code,
// i.e. subject to the walltime and seededrand determinism invariants.
// Everything in the module is, except the simExempt tooling subtrees —
// new packages are guilty until proven tooling.
func IsSimPackage(path string) bool {
	path = normalizePkgPath(path)
	if !hasPathPrefix(path, modulePrefix) {
		return false
	}
	for _, ex := range simExempt {
		if hasPathPrefix(path, ex) {
			return false
		}
	}
	return true
}
