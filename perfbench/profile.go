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

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto): just enough to charge each sample to the Dragster
// layer that was running. The benchmark cannot depend on the pprof
// module, and the standard library ships no profile parser.

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2
	sampleLabel    = 3

	labelKey = 1
	labelStr = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

var errProfile = errors.New("perfbench: malformed CPU profile")

type protoField struct {
	num  int
	wire int
	v    uint64 // varint and fixed-width values
	b    []byte // length-delimited values
}

// eachField calls f for every top-level field of one protobuf message.
func eachField(b []byte, f func(protoField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		fld := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch fld.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			fld.v, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			fld.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			fld.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			fld.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := f(fld); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not (runtime/pprof
// writes short lists unpacked).
func varints(dst []uint64, fld protoField) ([]uint64, error) {
	if fld.wire == 0 {
		return append(dst, fld.v), nil
	}
	if fld.wire != 2 {
		return nil, errProfile
	}
	for b := fld.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

type cpuSample struct {
	locs   []uint64 // leaf first
	nanos  int64
	labels [][2]uint64 // (key, value) string-table indices
}

type cpuProfile struct {
	samples []cpuSample
	locs    map[uint64][]uint64 // location → function IDs, innermost inlined frame first
	funcs   map[uint64]uint64   // function → name string index
	strs    []string
}

func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("perfbench: CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: CPU profile: %w", err)
	}
	p := &cpuProfile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]uint64)}
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case profSample:
			return p.addSample(f.b)
		case profLocation:
			return p.addLocation(f.b)
		case profFunction:
			var id, name uint64
			err := eachField(f.b, func(g protoField) error {
				switch g.num {
				case functionID:
					id = g.v
				case functionName:
					name = g.v
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStrings:
			p.strs = append(p.strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *cpuProfile) addSample(b []byte) error {
	var s cpuSample
	var values []uint64
	err := eachField(b, func(f protoField) error {
		var err error
		switch f.num {
		case sampleLocation:
			s.locs, err = varints(s.locs, f)
		case sampleValue:
			values, err = varints(values, f)
		case sampleLabel:
			var kv [2]uint64
			err = eachField(f.b, func(g protoField) error {
				switch g.num {
				case labelKey:
					kv[0] = g.v
				case labelStr:
					kv[1] = g.v
				}
				return nil
			})
			s.labels = append(s.labels, kv)
		}
		return err
	})
	if err != nil {
		return err
	}
	// CPU profiles carry [samples, cpu nanoseconds].
	if len(values) != 2 {
		return errProfile
	}
	s.nanos = int64(values[1])
	p.samples = append(p.samples, s)
	return nil
}

func (p *cpuProfile) addLocation(b []byte) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(f protoField) error {
		switch f.num {
		case locationID:
			id = f.v
		case locationLine:
			return eachField(f.b, func(g protoField) error {
				if g.num == lineFunction {
					fns = append(fns, g.v)
				}
				return nil
			})
		}
		return nil
	})
	p.locs[id] = fns
	return err
}

func (p *cpuProfile) str(i uint64) string {
	if i < uint64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

// label returns the sample's value for a pprof label key ("" if unset).
func (p *cpuProfile) label(s cpuSample, key string) string {
	for _, kv := range s.labels {
		if p.str(kv[0]) == key {
			return p.str(kv[1])
		}
	}
	return ""
}

// layerOf names the layer a sample's time is charged to: the package of
// the innermost dragster/internal frame on the stack, so allocation and
// standard-library time count against the layer that asked for it. A
// stack with no Dragster frame is the garbage collector's background
// work ("gc") or anything else the process did ("other").
func (p *cpuProfile) layerOf(s cpuSample) string {
	gc := false
	for _, loc := range s.locs {
		for _, fn := range p.locs[loc] {
			name := p.str(p.funcs[fn])
			if rest, ok := strings.CutPrefix(name, "dragster/internal/"); ok {
				if i := strings.IndexAny(rest, "./"); i >= 0 {
					rest = rest[:i]
				}
				return rest
			}
			if strings.HasPrefix(name, "runtime.gcBgMarkWorker") || strings.HasPrefix(name, "runtime.bgsweep") ||
				strings.HasPrefix(name, "runtime.bgscavenge") {
				gc = true
			}
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}
