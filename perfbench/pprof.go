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

// foldProfile decodes a gzipped pprof CPU profile, as runtime/pprof writes
// it, and sums each sample's CPU nanoseconds by the module of its leaf
// function (see moduleOf). Only the profile.proto fields this needs are
// read: sample types, samples, locations, functions and the string table.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("opening profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		sampleTypes []uint64 // string index of each sample type's name
		samples     []sample
		locFunc     = map[uint64]uint64{} // location ID → leaf function ID
		funcName    = map[uint64]uint64{} // function ID → name string index
		strs        []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample: {location_id = 1, value = 2}
			var s sample
			err := eachField(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, v, p)
				case 2:
					return appendUints(&s.values, v, p)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: {id = 1, line = 4: Line{function_id = 1}}
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(n int, v uint64, p []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seenLine:
					// The first line is the innermost inlined function.
					seenLine = true
					return eachField(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function: {id = 1, name = 2}
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
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
	// CPU profiles carry [samples/count, cpu/nanoseconds]; fold the cpu one.
	vi := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	out := make(map[string]int64)
	for _, s := range samples {
		if len(s.locs) == 0 || vi < 0 || vi >= len(s.values) {
			continue
		}
		name := str(funcName[locFunc[s.locs[0]]])
		out[moduleOf(name)] += int64(s.values[vi])
	}
	return out, nil
}

// moduleOf maps a Go symbol to the repository module that owns it: the
// last path element of an hcsgc package ("hcsgc/internal/telemetry/latency.
// (*Tracker).Report" → "latency"), "hcsgc" for the root package,
// "perfbench" for this program, and "go-runtime" for the Go runtime and
// standard library.
func moduleOf(symbol string) string {
	slash := strings.LastIndex(symbol, "/")
	dot := strings.Index(symbol[slash+1:], ".")
	pkg := symbol
	if dot >= 0 {
		pkg = symbol[:slash+1+dot]
	}
	switch {
	case pkg == "main" || pkg == "hcsgc/perfbench":
		return "perfbench"
	case pkg == "hcsgc":
		return "hcsgc"
	case strings.HasPrefix(pkg, "hcsgc/"):
		return pkg[strings.LastIndex(pkg, "/")+1:]
	}
	return "go-runtime"
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint/fixed value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var p []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errBadProto
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			p, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errBadProto
		}
		if err := fn(num, v, p); err != nil {
			return err
		}
	}
	return nil
}

var errBadProto = errors.New("malformed profile protobuf")

// appendUints appends one repeated-integer field, packed (p != nil) or not.
func appendUints(dst *[]uint64, v uint64, p []byte) error {
	if p == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		p = p[n:]
	}
	return nil
}
