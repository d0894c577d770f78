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

// This file folds a runtime/pprof CPU profile by Go package. It decodes
// just the parts of the profile.proto wire format it needs (samples,
// locations, functions and the string table), so the benchmark stays
// standard-library only.

// packageShares returns, for each package, its share of the profile's
// CPU samples. A sample is charged to the innermost frame whose function
// belongs to a package under prefix, so runtime work such as allocation
// counts against the package that asked for it; samples with no such
// frame go to "other".
func packageShares(gz []byte, prefix string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	funcName := make(map[uint64]string, len(p.funcs))
	for id, s := range p.funcs {
		if s >= 0 && int(s) < len(p.strs) {
			funcName[id] = p.strs[s]
		}
	}
	byPkg := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		pkg := "other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locs[loc] {
				if name := funcName[fn]; strings.HasPrefix(name, prefix) {
					pkg = packageOf(name)
					break frames
				}
			}
		}
		byPkg[pkg] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(byPkg))
	for k, v := range byPkg {
		out[k] = ratio(float64(v), float64(total))
	}
	return out, nil
}

// packageOf strips the symbol from a fully qualified Go function name:
// "mcpart/internal/partition.(*fm).run" → "mcpart/internal/partition".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value (CPU nanoseconds)
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location → function ids, innermost first
	funcs   map[uint64]int64    // function → name string index
	strs    []string
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, wt int, v uint64, data []byte) error {
		switch {
		case num == 2 && wt == 2:
			var s profSample
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				vals, err := repeatedVarint(wt, v, data)
				if err != nil {
					return err
				}
				switch num {
				case 1:
					s.locs = append(s.locs, vals...)
				case 2:
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case num == 4 && wt == 2:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch {
				case num == 1 && wt == 0:
					id = v
				case num == 4 && wt == 2:
					return eachField(data, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 && wt == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case num == 5 && wt == 2:
			var id uint64
			var name int64
			err := eachField(data, func(num, wt int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wt == 0:
					id = v
				case num == 2 && wt == 0:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case num == 6 && wt == 2:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("pprof: malformed profile")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its payload bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint reads a repeated varint field in either its packed or
// its one-value-per-field encoding.
func repeatedVarint(wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return []uint64{v}, nil
	}
	if wt != 2 {
		return nil, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
