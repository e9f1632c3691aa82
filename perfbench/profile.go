package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes the part of a gzipped pprof protobuf (as written by
// runtime/pprof) that layer attribution needs: sample value types, and
// each sample's values, labels and stack of function names.

// stackSample is one decoded profile sample.
type stackSample struct {
	// frames are function names, leaf first, with inlined calls
	// expanded in place (innermost first).
	frames []string
	values []int64
	labels map[string]string
}

// profile is a decoded pprof profile.
type profile struct {
	// types are the sample value types, as "type/unit".
	types   []string
	samples []stackSample
}

// valueIndex returns the position of the value type typ ("cpu/nanoseconds",
// "alloc_space/bytes", ...) in every sample's values.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.types {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %s values (has %v)", typ, p.types)
}

var errProto = errors.New("malformed profile protobuf")

// pbField is one protobuf field: a varint (wire type 0), a fixed-width
// value (1 and 5) or a length-delimited payload (2).
type pbField struct {
	num  uint64
	wire uint64
	u    uint64
	b    []byte
}

// eachField calls fn for every field of one protobuf message.
func eachField(buf []byte, fn func(pbField) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		f := pbField{num: key >> 3, wire: key & 7}
		switch f.wire {
		case 0:
			if f.u, n = binary.Uvarint(buf); n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1, 5:
			width := 8
			if f.wire == 5 {
				width = 4
			}
			if len(buf) < width {
				return errProto
			}
			buf = buf[width:]
		case 2:
			size, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < size {
				return errProto
			}
			f.b = buf[n : n+int(size)]
			buf = buf[n+int(size):]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// uints appends the values of a repeated varint field, which encoders may
// write packed (one length-delimited run) or one value per field.
func (f pbField) uints(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.u), nil
	}
	if f.wire != 2 {
		return nil, errProto
	}
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// rawSample is a sample before its location ids are resolved.
type rawSample struct {
	locs   []uint64
	values []uint64
	labels [][2]uint64 // key, value string indices
}

// parseProfile decodes a gzipped pprof protobuf.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		types   [][2]uint64
		raws    []rawSample
		locs    = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcs   = make(map[uint64]uint64)   // function id -> name string index
		nameErr error
	)
	err = eachField(pb, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			var vt [2]uint64
			err := eachField(f.b, func(g pbField) error {
				if g.num == 1 || g.num == 2 {
					vt[g.num-1] = g.u
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = g.uints(s.locs)
				case 2:
					s.values, err = g.uints(s.values)
				case 3:
					var kv [2]uint64
					err = eachField(g.b, func(h pbField) error {
						if h.num == 1 || h.num == 2 {
							kv[h.num-1] = h.u
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.u
				case 4: // line
					return eachField(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.u)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.u
				case 2:
					name = g.u
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i >= uint64(len(strs)) {
			nameErr = errProto
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, vt := range types {
		p.types = append(p.types, str(vt[0])+"/"+str(vt[1]))
	}
	for _, r := range raws {
		s := stackSample{values: make([]int64, len(r.values))}
		for i, v := range r.values {
			s.values[i] = int64(v)
		}
		for _, loc := range r.locs {
			for _, fn := range locs[loc] {
				s.frames = append(s.frames, str(funcs[fn]))
			}
		}
		if len(r.labels) > 0 {
			s.labels = make(map[string]string, len(r.labels))
			for _, kv := range r.labels {
				s.labels[str(kv[0])] = str(kv[1])
			}
		}
		p.samples = append(p.samples, s)
	}
	if nameErr != nil {
		return nil, nameErr
	}
	return p, nil
}
