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

// layers are the repository modules that get their own CPU bucket, in
// the order the traced run prints them.
var layers = []string{
	"graph", "ddsr", "tor", "botcrypto", "pow", "sim", "core",
	"soap", "churn", "faults", "experiment",
}

// Buckets that are not repository modules.
const (
	bucketGC      = "gc"      // garbage-collector work
	bucketCrypto  = "crypto"  // Go's crypto packages, by leaf frame
	bucketOther   = "other"   // other onionbots/internal modules
	bucketRuntime = "runtime" // everything else
)

// bucketNames lists every CPU bucket; each profile sample lands in
// exactly one.
func bucketNames() []string {
	return append(append([]string(nil), layers...), bucketCrypto, bucketGC, bucketOther, bucketRuntime)
}

// gcFrames mark a stack as garbage-collector work: background mark
// workers, mark assists charged to allocating goroutines, and the
// background sweeper and scavenger.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

const internalPrefix = "onionbots/internal/"

// bucketOf assigns one stack (function names, leaf first) to a CPU
// bucket:
//
//  1. any garbage-collector frame: gc;
//  2. a leaf frame in Go's crypto packages: crypto;
//  3. the innermost onionbots/internal/<module> frame: <module>, or
//     other for a module without its own bucket;
//  4. anything else: runtime.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return bucketGC
		}
	}
	if len(stack) > 0 && (strings.HasPrefix(stack[0], "crypto/") || strings.HasPrefix(stack[0], "vendor/golang.org/x/crypto/")) {
		return bucketCrypto
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		mod := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			mod = rest[:i]
		}
		for _, l := range layers {
			if l == mod {
				return mod
			}
		}
		return bucketOther
	}
	return bucketRuntime
}

// cpuBuckets sums a CPU profile's sample time into buckets, in
// seconds, and returns the profile's total alongside. The buckets sum
// to the total by construction.
func cpuBuckets(p *profile) (buckets map[string]float64, total float64) {
	buckets = make(map[string]float64)
	for _, name := range bucketNames() {
		buckets[name] = 0
	}
	for _, s := range p.samples {
		sec := float64(s.cpuNS) / 1e9
		buckets[bucketOf(s.stack)] += sec
		total += sec
	}
	return buckets, total
}

// profile is the part of a pprof CPU profile the bucketing needs: each
// sample's stack (function names, leaf first, inlined frames expanded)
// and its CPU time.
type profile struct {
	samples []sample
}

type sample struct {
	stack []string
	cpuNS int64
}

// parseProfile decodes a gzipped pprof protobuf as runtime/pprof writes
// it. Only the fields the bucketing reads are decoded; the format is
// the profile.proto message of github.com/google/pprof.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
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
		sampleTypes []int64 // string-table index of each value's type
		rawSamples  []rawSample
		locLines    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id → string-table index
		strs        []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendPacked(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
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
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	p := &profile{samples: make([]sample, 0, len(rawSamples))}
	for _, rs := range rawSamples {
		if cpu >= len(rs.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		var stack []string
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, sample{stack: stack, cpuNS: rs.values[cpu]})
	}
	return p, nil
}

// walkFields calls fn for every top-level field of a protobuf message:
// varints arrive in v, length-delimited fields in b. Fixed-width fields
// are skipped.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which the encoder may
// write either packed (one length-delimited run) or one value per key.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
