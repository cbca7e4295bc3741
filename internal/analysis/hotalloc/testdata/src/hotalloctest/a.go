// Package hotalloctest exercises hotalloc: allocation sites inside
// //tagalint:hotpath functions are findings; value literals, preallocated
// appends, panic arguments and unmarked functions are not.
package hotalloctest

import "fmt"

type msg struct {
	src, dst int
	payload  []byte
}

type batch struct {
	buf []*msg
}

//tagalint:hotpath
func pointerLiteral() *msg {
	return &msg{src: 1} // want `&msg\{\.\.\.\} in hot path: pointer composite literals allocate`
}

//tagalint:hotpath
func valueLiteralIsFine(m *msg) {
	*m = msg{} // zeroing through a pointer does not allocate
}

//tagalint:hotpath
func sliceAndMapLiterals() {
	_ = []int{1, 2, 3}         // want `\[\]int literal in hot path`
	_ = map[string]int{"a": 1} // want `map\[string\]int literal in hot path`
}

//tagalint:hotpath
func builtinAllocs() {
	_ = new(msg)          // want `new\(\.\.\.\) in hot path allocates`
	_ = make([]byte, 128) // want `make\(\.\.\.\) in hot path allocates`
}

//tagalint:hotpath
func closure(n int) func() int {
	return func() int { return n } // want `closure literal in hot path`
}

//tagalint:hotpath
func formatting(m *msg) {
	fmt.Printf("msg %d -> %d\n", m.src, m.dst) // want `fmt\.Printf in hot path allocates`
}

//tagalint:hotpath
func panicMayFormat(m *msg) {
	if m.src < 0 {
		panic(fmt.Sprintf("negative src %d", m.src)) // crashing path: exempt
	}
}

//tagalint:hotpath
func badAppend(b *batch, m *msg) {
	b.buf = append(b.buf, m) // want `append to b\.buf in hot path may grow the backing array`
}

//tagalint:hotpath
func resliceAppendIsFine(b *batch, m *msg) {
	keep := b.buf[:0]
	keep = append(keep, m)
	b.buf = append(b.buf[:0], m)
	_ = keep
}

//tagalint:hotpath
func paramAppendIsFine(dst []*msg, m *msg) []*msg {
	return append(dst, m)
}

//tagalint:hotpath
func makeAppendIsFine(n int) []int {
	out := make([]int, 0, n) // want `make\(\.\.\.\) in hot path allocates`
	for i := 0; i < n; i++ {
		out = append(out, i) // destination was made locally: capacity is owned
	}
	return out
}

func unmarkedIsIgnored() *msg {
	fmt.Println("cold path")
	return &msg{src: 2}
}
