// Command trace inspects Chrome trace_event JSON timelines written by the
// simulator's -trace flag (package obs): it validates their structure,
// prints a summary or the longest spans, and reconstructs the critical
// path with per-class blame attribution (package critpath).
//
// Example:
//
//	app heat -variant tagaspi -nodes 2 -trace /tmp/heat.json
//	trace /tmp/heat.json             # summary
//	trace -check /tmp/heat.json      # validate only; exit 0/1
//	trace -top 20 /tmp/heat.json     # longest spans
//	trace -blame /tmp/heat.json      # critical-path blame report (text)
//	trace -critpath /tmp/heat.json   # same report as canonical JSON
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/critpath"
)

func main() {
	check := flag.Bool("check", false, "validate only: exit 0 if the trace is well-formed and complete, 1 otherwise")
	top := flag.Int("top", 0, "print the N longest spans instead of the summary")
	blame := flag.Bool("blame", false, "print the critical-path blame report (text)")
	critJSON := flag.Bool("critpath", false, "print the critical-path blame report as canonical JSON")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: trace [-check] [-top N] [-blame] [-critpath] <trace.json>...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	fail := false
	for _, path := range flag.Args() {
		if flag.NArg() > 1 {
			fmt.Printf("== %s\n", path)
		}
		t, err := obs.ReadTraceFile(path)
		if err == nil {
			err = t.Validate()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %s: %v\n", path, err)
			fail = true
			continue
		}
		if *check {
			if n, dropped := t.DroppedEvents(); dropped {
				fmt.Fprintf(os.Stderr, "trace: %s: %d events were dropped during recording\n", path, n)
				fail = true
				continue
			}
			fmt.Printf("%s: ok (%d events)\n", path, len(t.TraceEvents))
			continue
		}
		if *blame || *critJSON {
			rep, err := critpath.FromTraceFile(t)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace: %s: %v\n", path, err)
				fail = true
				continue
			}
			if *critJSON {
				err = rep.WriteJSON(os.Stdout)
			} else {
				err = rep.WriteText(os.Stdout)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace: %s: %v\n", path, err)
				fail = true
			}
			continue
		}
		if *top > 0 {
			for _, e := range t.TopSpans(*top) {
				fmt.Printf("%12.3fus  %-28s rank=%d tid=%d @%.3fus\n",
					e.Dur, e.Name, e.Pid, e.Tid, e.Ts)
			}
			continue
		}
		t.Summarize().Write(os.Stdout)
	}
	if fail {
		os.Exit(1)
	}
}
