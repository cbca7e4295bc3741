// Fixture for the simerr analyzer.
package simerrtest

import (
	"strconv"

	"repro/internal/gaspisim"
	"repro/internal/memory"
	"repro/internal/tagaspi"
	"repro/internal/tasking"
)

func droppedExprStmt(p *gaspisim.Proc) {
	p.SegmentCreate(0, 64) // want "error result of gaspisim.Proc.SegmentCreate is discarded"
}

func blankTuple(p *gaspisim.Proc) *memory.Segment {
	seg, _ := p.SegmentCreate(0, 64) // want "error result of gaspisim.Proc.SegmentCreate is assigned to the blank identifier"
	return seg
}

func blankTupleAssign(seg *memory.Segment) {
	var v []float64
	v, _ = memory.F64View(seg, 0, 8) // want "error result of memory.F64View is assigned to the blank identifier"
	clear(v)
}

func blankSingle(p *gaspisim.Proc, op gaspisim.Operation) {
	_ = p.Submit(op) // want "error result of gaspisim.Proc.Submit is assigned to the blank identifier"
}

func taskAwareDropped(l *tagaspi.Library, t *tasking.Task) {
	l.Notify(t, 1, 0, 0, 1, 0) // want "error result of tagaspi.Library.Notify is discarded"
}

func handled(p *gaspisim.Proc) (*memory.Segment, error) {
	seg, err := p.SegmentCreate(0, 64) // ok
	if err != nil {
		return nil, err
	}
	return seg, nil
}

func handledLater(seg *memory.Segment) []float64 {
	v, err := memory.F64View(seg, 0, 8) // ok: error bound to a name
	_ = err
	return v
}

func nonSimPackagesAreFine() int {
	n, _ := strconv.Atoi("42") // ok: not a simulator API
	return n
}

func errorlessResultsAreFine(seg *memory.Segment) int {
	return seg.Size() // ok: no error in the signature
}

func suppressed(p *gaspisim.Proc) {
	//lint:ignore simerr fixture demonstrating the justified-suppression directive
	p.SegmentCreate(1, 64)
}
