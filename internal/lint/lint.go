// Package lint is the repo's static-analysis layer: a minimal
// reimplementation of the golang.org/x/tools/go/analysis vocabulary
// (Analyzer, Pass, Diagnostic) plus the `go vet -vettool` unitchecker
// driver protocol, built — like the rest of blueskies — on the
// standard library alone.
//
// The analyzers machine-check the determinism invariants every
// scaling layer rests on (DESIGN.md §10): byte-identical output
// across worker counts, partitions, disk spills, and remote
// schedules. Golden/parity tests enforce those invariants after the
// fact; the analyzers enforce them at vet time, before code lands.
//
//	maporder   — no order-sensitive iteration over Go maps in
//	             determinism-critical packages without a sort or an
//	             audited //lint:ordered comment.
//	walltime   — no wall-clock (time.Now/Since/Until) or unseeded
//	             math/rand in determinism-critical packages; sim and
//	             protocol code injects a Clock instead.
//	cborwire   — no Go map reachable from a value handed to the
//	             DAG-CBOR encoder in determinism-critical packages;
//	             wire structs carry key-sorted pair slices (§9).
//	shardcodec — every analysis.Accumulator implementation has a
//	             sound MarshalShard/UnmarshalShard pair: the decoder
//	             uses (or explicitly blanks) its StateBounds, and the
//	             type is registered in NewFullEngine, the registry the
//	             codec round-trip golden test folds through.
//	framegate  — every wire struct in a block-format package (one
//	             declaring DiskFormatVersion) carries a current
//	             //wire:v<N> fields=<M> directive — wire*-named
//	             structs and any struct tagged with a directive (the
//	             columnar codecs serialize record structs without
//	             wire* mirrors) — so wire-shape changes can't land
//	             without confronting the format version and decode
//	             dispatch that gate them (§11).
//	internescape — no store may retain a *LabelChunk or alias its
//	             Meta/Labels slices past the Shard.Labels call: the
//	             buffers are per-block and their interned ids
//	             are only valid until MergeCtx remaps them into the
//	             global id space. Copy elements; ids are plain ints.
//
// Suppression: a site the team has audited carries a
// `//lint:<name> <justification>` comment on its own line or the line
// above (maporder's directive is //lint:ordered). The justification
// is mandatory by convention — a bare directive reads as an unaudited
// mute and should be rejected in review.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis: its name, what it checks, and
// the function that runs it on a single package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos
	Category string
	Message  string
}

// A Pass carries one analyzer's view of one type-checked package.
// The driver (unitchecker or test harness) populates every field.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	lineComments map[string]map[int][]string // filename → line → comment texts
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, End: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns the full blueskies analyzer suite in stable
// order. cmd/bskylint registers exactly this set.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, WallTime, CBORWire, ShardCodec, FrameGate, InternEscape}
}

// criticalPackages are the packages whose output must be byte-
// identical across worker counts, partitions, spills, and remote
// schedules (DESIGN.md §10). The determinism analyzers fire only
// here; protocol/sim packages are governed by their injected-Clock
// convention instead.
var criticalPackages = map[string]bool{
	"blueskies/internal/core":     true,
	"blueskies/internal/synth":    true,
	"blueskies/internal/analysis": true,
	"blueskies/internal/sched":    true,
}

// Critical reports whether pkgPath is determinism-critical.
func Critical(pkgPath string) bool { return criticalPackages[pkgPath] }

// testFile reports whether the file containing pos is a _test.go
// file. Test code measures and mocks wall time and iterates maps for
// assertions; the determinism invariants bind only the shipped path.
func (p *Pass) testFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f == nil || strings.HasSuffix(f.Name(), "_test.go")
}

// Suppressed reports whether the line at pos, or the line above it,
// carries a `//lint:<directive>` comment — the audited-site escape
// hatch. Directive matching requires the comment to start with the
// directive and continue only with a justification (whitespace-
// separated), so //lint:ordered does not also mute //lint:orderedX.
func (p *Pass) Suppressed(pos token.Pos, directive string) bool {
	if p.lineComments == nil {
		p.lineComments = make(map[string]map[int][]string)
		for _, f := range p.Files {
			tf := p.Fset.File(f.Pos())
			if tf == nil {
				continue
			}
			lines := make(map[int][]string)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					line := p.Fset.Position(c.Pos()).Line
					lines[line] = append(lines[line], c.Text)
				}
			}
			p.lineComments[tf.Name()] = lines
		}
	}
	posn := p.Fset.Position(pos)
	lines := p.lineComments[posn.Filename]
	want := "//lint:" + directive
	for _, line := range []int{posn.Line, posn.Line - 1} {
		for _, text := range lines[line] {
			if text == want || strings.HasPrefix(text, want+" ") || strings.HasPrefix(text, want+"\t") {
				return true
			}
		}
	}
	return false
}

// funcFor resolves a call expression to the package-level or imported
// function it invokes, or nil for method calls, conversions, and
// builtins.
func (p *Pass) funcFor(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.TypesInfo.Uses[id].(*types.Func)
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return nil // method call (e.g. a seeded *rand.Rand), not a package function
		}
	}
	return fn
}

// pathOf returns the import path of fn's defining package ("" for
// builtins and universe-scope functions).
func pathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
