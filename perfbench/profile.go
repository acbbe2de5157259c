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

// Layers are the program's modules, in stack order, plus the benchmark
// ("bench") and the Go runtime. Every CPU-profile sample is charged to
// exactly one of them.
var layers = []string{
	"nand", "ftl", "core", "storage", "ncq", "simfs", "pager", "btree",
	"sqlparse", "sqlite", "mvcc", "readpool", "shard", "server",
	"bench", "runtime",
}

// layerOf maps a Go package path to its layer. Helper packages that
// are not layers (clock, counters, tracer, the facade, workload
// generators) return "" so their frames are charged to the layer that
// called them, as runtime helpers are.
func layerOf(pkg string) string {
	switch pkg {
	case "main":
		return "bench"
	case "repro/internal/sqlite/pager":
		return "pager"
	case "repro/internal/sqlite/btree":
		return "btree"
	case "repro/internal/sqlite/sqlparse":
		return "sqlparse"
	case "repro/internal/sqlite":
		return "sqlite"
	}
	if l, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		switch l {
		case "nand", "ftl", "core", "storage", "ncq", "simfs", "mvcc", "readpool", "shard", "server":
			return l
		}
	}
	return ""
}

// funcPackage extracts the package path from a symbol name such as
// "repro/internal/sqlite/btree.(*Tree).Get" or "main.runSynth.func1".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// cpuProfile is the part of a pprof CPU profile the attribution needs:
// each sample's stack (leaf first, inlined frames expanded) and its CPU
// nanoseconds.
type cpuProfile struct {
	stacks [][]string
	nanos  []int64
}

// attribution is the CPU profile charged to layers.
type attribution struct {
	totalNS  int64
	layerNS  map[string]int64
	mallocNS int64 // samples with runtime.mallocgc on the stack
}

// attribute charges each sample to the innermost frame that belongs to
// a layer; samples with no layer frame (background GC, scheduler,
// idle network polling) go to "runtime".
func attribute(p *cpuProfile) attribution {
	a := attribution{layerNS: make(map[string]int64, len(layers))}
	for i, stack := range p.stacks {
		ns := p.nanos[i]
		a.totalNS += ns
		owner := ""
		for _, fn := range stack {
			if fn == "runtime.mallocgc" {
				a.mallocNS += ns
			}
			if owner == "" {
				owner = layerOf(funcPackage(fn))
			}
		}
		if owner == "" {
			owner = "runtime"
		}
		a.layerNS[owner] += ns
	}
	return a
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields named in cpuProfile are read.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, f := range locFuncs[loc] {
				if i := funcNames[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, s.values[1])
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or payload (type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (wire type 0) or packed (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
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
