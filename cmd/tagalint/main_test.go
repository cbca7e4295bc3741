package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStandaloneFailsOnUnmatchedPattern is the regression test for the
// silent-skip bug: a pattern naming a directory that does not exist (or
// holds no Go packages) must exit 2 like any other load error, not 0. A
// CI gate that typos a path must fail loudly, not pass vacuously.
func TestStandaloneFailsOnUnmatchedPattern(t *testing.T) {
	if code := standalone([]string{"./no-such-dir"}, "off"); code != 2 {
		t.Errorf("standalone(./no-such-dir) = exit %d, want 2", code)
	}
	if code := standalone([]string{"./no-such-dir/..."}, "off"); code != 2 {
		t.Errorf("standalone(./no-such-dir/...) = exit %d, want 2", code)
	}
}

// TestStandaloneFailsOnParseError checks that a package that does not
// parse is a load error (exit 2), not a package silently dropped from the
// run.
func TestStandaloneFailsOnParseError(t *testing.T) {
	tmp := t.TempDir()
	if err := os.WriteFile(filepath.Join(tmp, "broken.go"), []byte("package broken\nfunc {"), 0o644); err != nil {
		t.Fatal(err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
	}()
	if code := standalone([]string{"."}, "off"); code != 2 {
		t.Errorf("standalone over an unparseable package = exit %d, want 2", code)
	}
}

// TestStandaloneCleanDir checks the happy path still exits 0 on a clean
// package (this command's own directory).
func TestStandaloneCleanDir(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the package from source; skipped in -short mode")
	}
	if code := standalone([]string{"."}, "error"); code != 0 {
		t.Errorf("standalone(.) = exit %d, want 0", code)
	}
}
