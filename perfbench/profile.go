package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one CPU profile sample: the CPU time it stands for and
// its call stack as function names, leaf first.
type cpuSample struct {
	ns    int64
	stack []string
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof writes, keeping only what per-layer folding needs.
// Field numbers follow github.com/google/pprof/proto/profile.proto.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		strs       []string
		valueTypes []uint64 // string index of each sample value's type
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames  = map[uint64]uint64{}   // function id → string index
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return protoFields(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					valueTypes = append(valueTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{ns: int64(s.values[cpu])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				cs.stack = append(cs.stack, str(funcNames[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// protoFields calls fn for each field of one protobuf message: v holds
// a varint or fixed-width value, b a length-delimited payload.
func protoFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's value: a single
// varint v, or a packed run in b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// funcPackage returns the import path of a profiled function name such
// as "tcphack/internal/rohc.(*Compressor).Compress" or
// "internal/runtime/maps.(*Map).getWithKeySmall". Generic instance
// brackets are dropped first, since their type arguments may contain
// dots and slashes.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

const modulePrefix = "tcphack/internal/"

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") ||
		strings.HasPrefix(pkg, "runtime/internal/")
}

// runtimeClasses map runtime function-name prefixes to the runtime
// layer they belong to.
var runtimeClasses = []struct{ prefix, layer string }{
	{"runtime.gc", "runtime.gc"},
	{"runtime.scan", "runtime.gc"},
	{"runtime.markroot", "runtime.gc"},
	{"runtime.greyobject", "runtime.gc"},
	{"runtime.findObject", "runtime.gc"},
	{"runtime.bgsweep", "runtime.gc"},
	{"runtime.sweepone", "runtime.gc"},
	{"runtime.(*sweepLocked)", "runtime.gc"},
	{"runtime.(*mspan).sweep", "runtime.gc"},
	{"runtime.(*gcWork)", "runtime.gc"},
	{"runtime.(*gcControllerState)", "runtime.gc"},
	{"runtime.wbBuf", "runtime.gc"},
	{"runtime.bulkBarrier", "runtime.gc"},
	{"runtime.bgscavenge", "runtime.gc"},
	{"runtime.mallocgc", "runtime.alloc"},
	{"runtime.newobject", "runtime.alloc"},
	{"runtime.newarray", "runtime.alloc"},
	{"runtime.makeslice", "runtime.alloc"},
	{"runtime.growslice", "runtime.alloc"},
	{"runtime.nextFreeFast", "runtime.alloc"},
	{"runtime.heapSetType", "runtime.alloc"},
	{"runtime.(*mcache)", "runtime.alloc"},
	{"runtime.(*mcentral)", "runtime.alloc"},
	{"runtime.(*mheap)", "runtime.alloc"},
	{"runtime.map", "runtime.map"},
	{"internal/runtime/maps.", "runtime.map"},
	{"runtime.memhash", "runtime.map"},
	{"runtime.strhash", "runtime.map"},
	{"runtime.aeshash", "runtime.map"},
	{"runtime.interhash", "runtime.map"},
	{"runtime.nilinterhash", "runtime.map"},
	{"runtime.typehash", "runtime.map"},
}

// layerOf names the layer a sample's CPU time is charged to; stack is
// leaf first.
//   - A leaf in the runtime is charged to the first garbage-collection,
//     allocation or map frame found walking toward the root
//     (runtime.gc, runtime.alloc, runtime.map), else to runtime.other.
//   - Any other leaf is charged to the nearest simulator package on the
//     stack (tcphack/internal/<pkg> → <pkg>), so standard-library
//     helpers count toward their caller. The benchmark's own code
//     (hooks, counting tracer) is "bench"; a stack with neither is
//     "other".
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if isRuntime(funcPackage(stack[0])) {
		for _, fn := range stack {
			for _, c := range runtimeClasses {
				if strings.HasPrefix(fn, c.prefix) {
					return c.layer
				}
			}
		}
		return "runtime.other"
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if rest, ok := strings.CutPrefix(pkg, modulePrefix); ok {
			layer, _, _ := strings.Cut(rest, "/")
			return layer
		}
		if pkg == "main" {
			return "bench"
		}
	}
	return "other"
}

// foldByLayer sums sample CPU time per layer, in nanoseconds, and
// returns the total.
func foldByLayer(samples []cpuSample) (map[string]int64, int64) {
	by := make(map[string]int64)
	var total int64
	for _, s := range samples {
		by[layerOf(s.stack)] += s.ns
		total += s.ns
	}
	return by, total
}
