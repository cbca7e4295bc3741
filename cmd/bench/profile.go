package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// This file reads the CPU profile a profiled child wrote and buckets its
// samples by layer. go.mod stays stdlib-only, so the pprof protobuf is
// decoded by the few dozen lines below instead of an imported package;
// only the fields needed to name each sample's frames are read
// (profile.proto: Profile.sample/location/function/string_table).

// layers are the cpu_share.* buckets, in report order.
var layers = []string{
	"vclock", "vsync", "memory", "fabric", "mpisim", "gaspisim", "tasking",
	"core", "tampi", "tagaspi", "collectives", "cluster", "apps", "exp", "obs",
	"go_sched", "go_sync", "go_mem", "go_gc", "other",
}

// internalLayer maps each directory under repro/internal to its layer.
// bench_test.go fails when a package directory is missing here, so a new
// package cannot silently land in "other".
var internalLayer = map[string]string{
	"vclock": "vclock", "vsync": "vsync", "memory": "memory",
	"fabric": "fabric", "mpisim": "mpisim", "gaspisim": "gaspisim",
	"tasking": "tasking", "core": "core", "tampi": "tampi", "tagaspi": "tagaspi",
	"collectives": "collectives", "cluster": "cluster", "apps": "apps",
	"exp": "exp", "figures": "exp", // figure generators are the experiment plane
	"obs": "obs", "obscli": "obs",
	"analysis": "other", "cliflag": "other", // lint plane and flag parsing never run inside a job
}

// runtimeLayer classifies one runtime function (name without the
// "runtime." prefix) into a go_* bucket, or "" when the name alone does not
// tell — the caller then looks at the next frame out.
func runtimeLayer(fn string) string {
	for _, r := range runtimeRules {
		for _, p := range r.prefixes {
			if strings.HasPrefix(fn, p) {
				return r.layer
			}
		}
	}
	return ""
}

// runtimeRules is checked in order; the first matching prefix wins. Names
// that do not tell on their own (lock2, systemstack, acquirem, …) are left
// out on purpose, so that their caller decides.
var runtimeRules = []struct {
	layer    string
	prefixes []string
}{
	{"go_gc", []string{
		"gc", "scan", "greyobject", "markroot", "sweep", "bgsweep", "bgscavenge",
		"(*sweepLock", "(*activeSweep)", "(*mspan).sweep", "wbBuf", "bulkBarrier",
		"(*gcWork)", "(*gcBits)", "findObject", "spanOf", "(*mheap).free",
		"(*mheap).reclaim", "stopTheWorld", "startTheWorld",
	}},
	{"go_mem", []string{
		"malloc", "memmove", "memclr", "newobject", "newarray", "makeslice", "growslice",
		"(*mcache)", "(*mcentral)", "(*mheap).alloc", "(*mheap).grow", "(*mheap).initSpan",
		"(*pageAlloc)", "(*fixalloc)", "(*spanSet)", "(*mspan).init", "(*mspan).refillAllocCache",
		"(*mspan).nextFreeIndex", "(*mspan).writeHeapBits", "nextFree", "heapSetType",
		"typedmemmove", "duffcopy", "duffzero", "stackalloc", "stackpool", "newstack",
		"morestack", "copystack", "sysAlloc", "sysMap", "sysMmap", "sysUsed", "sysUnused",
		"sysFree", "madvise", "mmap",
	}},
	{"go_sync", []string{
		"sema", "(*semaRoot)", "sync_", "internal_sync_", "notifyList", "chan", "closechan",
		"select", "send", "recv", "(*waitq)", "acquireSudog", "releaseSudog", "(*mLockProfile)",
	}},
	{"go_sched", []string{
		"gopark", "goready", "ready", "park_m", "schedule", "findRunnable", "execute", "mcall",
		"gogo", "gosched", "goschedImpl", "gopreempt", "preempt", "asyncPreempt", "futex", "note",
		"wakep", "startm", "stopm", "handoffp", "runq", "globrunq", "stealWork", "pidle", "mPark",
		"mget", "mput", "resetspinning", "(*timers)", "(*timer)", "usleep", "osyield", "procyield",
		"netpoll", "epoll", "newproc", "gfget", "gfput", "goexit", "gdestroy", "casgstatus",
		"(*guintptr)", "nanotime", "tgkill", "signalM", "sysmon", "retake", "wirep",
	}},
}

// pkgOf returns the import path of a Go symbol such as
// "repro/internal/vsync.(*Queue[go.shape.int]).Push".
func pkgOf(fn string) string {
	if !strings.Contains(fn, ".") {
		return "runtime" // assembly bodies (gogo, memeqbody, …) carry no package
	}
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i] // type arguments may hold slashes and dots of their own
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// layerOf buckets one sample by its leaf function's package. stack holds
// the sample's function names, leaf first. A runtime leaf is subdivided
// into scheduler / sync / memory / GC by the nearest runtime frame whose
// name tells which; anything not placed is "other".
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	pkg := pkgOf(stack[0])
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		dir, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		if l, ok := internalLayer[dir]; ok {
			return l
		}
		return "other"
	case pkg == "repro/cmd/bench":
		return "apps" // the incast rank main is the application of its workload
	case pkg == "sync" || pkg == "internal/sync" || pkg == "sync/atomic" || pkg == "internal/runtime/atomic":
		return "go_sync"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		for _, fn := range stack {
			p := pkgOf(fn)
			if p != "runtime" && !strings.HasPrefix(p, "internal/runtime/") && !strings.HasPrefix(p, "runtime/internal/") {
				break
			}
			if l := runtimeLayer(strings.TrimPrefix(fn, "runtime.")); l != "" {
				return l
			}
		}
	}
	return "other"
}

// cpuShares reads a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time (every layer present, summing to 1) along
// with the number of distinct stacks sampled. A profile without samples
// yields all-zero shares.
func cpuShares(path string) (map[string]float64, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	stacks, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
	}
	var total float64
	for _, s := range stacks {
		shares[layerOf(s.funcs)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return shares, 0, nil
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, len(stacks), nil
}

// profStack is one profile sample: its frames' function names, leaf first
// (inlined frames expanded), and its weight.
type profStack struct {
	funcs []string
	value int64
}

// decodeProfile parses a (gzipped) profile.proto message into stacks
// weighted by the profile's last sample value (CPU nanoseconds).
func decodeProfile(raw []byte) ([]profStack, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type sampleRec struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sampleRec
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	err := pbWalk(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sampleRec
			var vals []uint64
			err := pbWalk(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return pbRepeated(&s.locs, v, data)
				case 2:
					return pbRepeated(&vals, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbWalk(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return pbWalk(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			err := pbWalk(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stacks := make([]profStack, 0, len(samples))
	for _, s := range samples {
		ps := profStack{value: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					ps.funcs = append(ps.funcs, strs[idx])
				}
			}
		}
		stacks = append(stacks, ps)
	}
	return stacks, nil
}

var errTruncated = errors.New("truncated protobuf")

func pbVarint(b []byte) (v uint64, n int, err error) {
	for shift := uint(0); n < len(b) && shift < 64; shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n, nil
		}
	}
	return 0, 0, errTruncated
}

// pbWalk calls fn for every field of one protobuf message: v holds a
// varint field's value, data a length-delimited field's bytes. Fixed-width
// fields (unused by profile.proto) are skipped.
func pbWalk(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n, err = pbVarint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n, err := pbVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return errTruncated
			}
			data, b = b[:l], b[l:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends one occurrence of a repeated varint field: a single
// value (data nil) or a packed run.
func pbRepeated(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n, err := pbVarint(data)
		if err != nil {
			return err
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
