package cliutil

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestProfileFlagsRegisteredAndOff(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := AddProfile(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	var errBuf bytes.Buffer
	stop, err := p.Start(&errBuf)
	if err != nil {
		t.Fatal(err)
	}
	stop() // nothing requested: must be a clean no-op
	if errBuf.Len() != 0 {
		t.Errorf("no-op profile teardown wrote %q", errBuf.String())
	}
}

func TestProfileWritesFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := AddProfile(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start(os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (err %v)", path, err)
		}
	}
}

func TestWatchdogFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	w := AddWatchdog(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if w.Armed() {
		t.Error("watchdog armed with no flags set")
	}
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	w2 := AddWatchdog(fs2)
	if err := fs2.Parse([]string{"-deadline", "3s"}); err != nil {
		t.Fatal(err)
	}
	if !w2.Armed() || *w2.Deadline != 3*time.Second {
		t.Errorf("parsed deadline %v armed=%t, want 3s armed", *w2.Deadline, w2.Armed())
	}
	fs3 := flag.NewFlagSet("t", flag.ContinueOnError)
	w3 := AddWatchdog(fs3)
	if err := fs3.Parse([]string{"-stall", "1s"}); err != nil {
		t.Fatal(err)
	}
	if !w3.Armed() {
		t.Error("stall alone should arm the watchdog")
	}
}
