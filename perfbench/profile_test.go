package main

import (
	"bytes"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"tcphack/internal/rohc.(*Compressor).Compress":            "tcphack/internal/rohc",
		"tcphack/internal/node.(*Network).StartUDPDownload.func1": "tcphack/internal/node",
		"internal/runtime/maps.(*Map).getWithKeySmall":            "internal/runtime/maps",
		"runtime.mallocgc":        "runtime",
		"main.(*counter).TxStart": "main",
		"slices.SortFunc[go.shape.[]tcphack/internal/x.T,go.shape.int]": "slices",
		"tcphack/internal/sim.(*wheel[go.shape.struct {}]).push":        "tcphack/internal/sim",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOfFoldsByPackage(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"tcphack/internal/rohc.(*Compressor).Compress"}, "rohc"},
		{[]string{"runtime.mallocgc", "tcphack/internal/mac.(*Station).Enqueue"}, "runtime.alloc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1", "tcphack/internal/hack.(*Driver).peer"}, "runtime.map"},
		// A runtime leaf is classed by the first classified frame toward the root.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "tcphack/internal/packet.New"}, "runtime.alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm"}, "runtime.other"},
		// Standard-library helpers count toward their simulator caller.
		{[]string{"math.Log10", "tcphack/internal/channel.(*Geometry).rxPower"}, "channel"},
		{[]string{"main.(*counter).TxStart", "tcphack/internal/channel.(*Medium).Transmit"}, "bench"},
		{[]string{"runtime/pprof.profileWriter"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestFoldByLayerSums(t *testing.T) {
	by, total := foldByLayer([]cpuSample{
		{ns: 10, stack: []string{"tcphack/internal/sim.(*Scheduler).Run"}},
		{ns: 5, stack: []string{"tcphack/internal/sim.(*Scheduler).Post"}},
		{ns: 7, stack: []string{"runtime.mallocgc"}},
	})
	if total != 22 || by["sim"] != 15 || by["runtime.alloc"] != 7 {
		t.Errorf("foldByLayer = %v total %d, want sim=15 runtime.alloc=7 total 22", by, total)
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := range 1000 {
			x += i * i
		}
	}
	return x
}

// A profile written by runtime/pprof decodes into samples whose
// stacks name the function that burned the CPU.
func TestParseCPUProfileFromRuntime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin int64
	for _, s := range samples {
		if s.ns <= 0 {
			t.Fatalf("sample with %d ns", s.ns)
		}
		if slices.ContainsFunc(s.stack, func(fn string) bool { return strings.HasSuffix(fn, ".spinForProfile") }) {
			spin += s.ns
		}
	}
	if spin < int64(100*time.Millisecond) {
		t.Errorf("profile charged %v to spinForProfile over a 300 ms spin", time.Duration(spin))
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}
