// Package detlint defines the tagalint analyzer that keeps simulator code
// deterministic by construction. The repository's correctness gates —
// byte-identical traces (PR 2), parallel==sequential figure regeneration
// (PR 3), the seeded fault plane (PR 4) and result caching keyed on
// (figure, preset, seed) — all assume that modelled behaviour is a pure
// function of configuration and seeds. One stray wall-clock read or
// global-generator rand call in a simulator package breaks every one of
// them, usually long after the commit that introduced it.
//
// detlint therefore bans, in simulator packages:
//
//   - wall-clock and host-timer calls: time.Now, Sleep, Since, Until,
//     After, AfterFunc, Tick, NewTicker, NewTimer. Simulator code takes
//     time from a vclock.VirtualClock; host-side timing belongs in the
//     exempt packages.
//   - the global math/rand (and math/rand/v2) generator: rand.Int,
//     rand.Intn, rand.Shuffle, rand.Seed, ... Randomness must flow from
//     an explicitly seeded rand.New(rand.NewSource(seed)) — see
//     fabric.SeedOf for deriving stable seeds from point identities.
//
// Exempt are the packages that exist to touch host time: internal/exp
// (measures host-side run time) and everything under cmd/ (front-ends
// report host times next to modelled times).
package detlint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer reports nondeterminism sources in simulator packages.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc: "report wall-clock and unseeded math/rand calls in simulator packages\n\n" +
		"Modelled results must be a pure function of configuration and seeds; " +
		"time comes from vclock.VirtualClock and randomness from explicitly seeded " +
		"generators. internal/exp and cmd/ are exempt.",
	Run: run,
}

// bannedTime is the wall-clock surface of package time. Pure value
// constructors and arithmetic (time.Duration, time.Second, ...) stay
// allowed; everything that reads or schedules against the host clock is
// not.
var bannedTime = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || exempt(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTime[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"time.%s reads the host clock in a simulator package; take time from a vclock.VirtualClock (or move host timing into internal/exp or cmd/)",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				// Constructors (New, NewSource, NewPCG, NewZipf, ...) build
				// explicitly seeded generators and are the fix, not the bug.
				if !strings.HasPrefix(fn.Name(), "New") {
					pass.Reportf(sel.Pos(),
						"%s.%s uses the global generator in a simulator package; use an explicitly seeded rand.New(rand.NewSource(seed)) (derive seeds with fabric.SeedOf)",
						fn.Pkg().Name(), fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// exempt reports whether the package at path is allowed to touch host time
// and global randomness: internal/exp and every package under a cmd/
// directory. External test packages share their primary
// package's status.
func exempt(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	segs := strings.Split(path, "/")
	for _, s := range segs {
		if s == "cmd" {
			return true
		}
	}
	return segs[len(segs)-1] == "exp"
}
