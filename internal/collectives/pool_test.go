package collectives

import (
	"testing"

	"repro/internal/memory/pooltest"
)

// TestReleaseMark: a released taStep refuses releaseStep and a step body.
func TestReleaseMark(t *testing.T) {
	s := newStep(nil, 0, 0)
	releaseStep(s)
	pooltest.Panics(t, map[string]func(){
		"collectives: releaseStep of a released taStep": func() { releaseStep(s) },
		"collectives: step body on a released taStep":   func() { s.ringRun(nil) },
	})
	pooltest.Size[taStep](t, 112)
}
