package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"

	"pperf/internal/datasource"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// countingSink is the traced run's recorder: it counts the analysis-plane
// events the front end hands a session.Sink, then passes every call on.
type countingSink struct {
	session.Sink
	batches, samples, updates, enables int64
}

func newCountingSink(next session.Sink) *countingSink {
	if next == nil {
		next = discardSink{}
	}
	return &countingSink{Sink: next}
}

func (c *countingSink) RecordSamples(batch []datasource.Sample) {
	c.batches++
	c.samples += int64(len(batch))
	c.Sink.RecordSamples(batch)
}

func (c *countingSink) RecordUpdate(u datasource.Update) {
	c.updates++
	c.Sink.RecordUpdate(u)
}

func (c *countingSink) RecordEnable(metricName string, focus resource.Focus, errMsg string) {
	c.enables++
	c.Sink.RecordEnable(metricName, focus, errMsg)
}

// addTo adds the counts into an op's values.
func (c *countingSink) addTo(o *op) {
	o.add("daemon.sample_batches", float64(c.batches))
	o.add("daemon.samples", float64(c.samples))
	o.add("frontend.updates", float64(c.updates))
	o.add("frontend.enables", float64(c.enables))
}

// discardSink drops everything, so a live session can be counted without
// keeping its event stream.
type discardSink struct{}

func (discardSink) RecordSamples([]datasource.Sample)           {}
func (discardSink) RecordUpdate(datasource.Update)              {}
func (discardSink) RecordEnable(string, resource.Focus, string) {}
func (discardSink) RecordStale(string, sim.Time)                {}
func (discardSink) RecordGap(datasource.Gap)                    {}
func (discardSink) RecordShard(trace.Shard)                     {}
func (discardSink) RecordUndelivered(string, int64)             {}
func (discardSink) RecordBarrier()                              {}
func (discardSink) SetHistogram(int, sim.Duration)              {}
func (discardSink) SetMeta(string, string)                      {}
func (discardSink) SetExtra([]byte)                             {}
func (discardSink) EventCount() int                             { return 0 }

// gcCPU reads the runtime's cumulative GC CPU estimate and cycle count.
func gcCPU() (seconds, cycles float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), float64(s[1].Value.Uint64())
}

// peakRSSMB returns the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// moduleOf returns the pperf/internal module a profiled function belongs
// to, or "" for a function outside pperf/internal.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "pperf/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// cpuByModule decodes a gzipped pprof CPU profile, as runtime/pprof writes
// it, and charges each sample's CPU seconds to the innermost frame on its
// stack that belongs to one of the given pperf/internal modules ("" when
// there is none). Charging the innermost frame puts allocation, map and
// memmove work on the layer that asked for it; a frame of a module not
// listed is passed over, so its work lands on the listed layer that called
// it.
func cpuByModule(gz []byte, modules []string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		out[p.innermostModule(s.locs, modules)] += float64(s.values[cpu]) / 1e9
	}
	return out, nil
}

// profile is the part of the pprof protobuf (profile.proto) that CPU
// attribution needs.
type profile struct {
	sampleTypes []int64 // string-table index of each sample type's name
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id → function ids, innermost first
	funcNames   map[uint64]int64    // function id → name string index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

func (p *profile) innermostModule(locs []uint64, modules []string) string {
	for _, l := range locs {
		for _, f := range p.locFuncs[l] {
			if m := moduleOf(p.str(p.funcNames[f])); slices.Contains(modules, m) {
				return m
			}
		}
	}
	return ""
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1}
			return eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample: Sample{location_id=1, value=2}
			var s sample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return eachUint(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachUint(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: Location{id=1, line=4: Line{function_id=1}}
			var id uint64
			var funcs []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function: Function{id=1, name=2}
			var id uint64
			var name int64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped: nothing decoded here uses them.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wt {
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
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachUint yields a repeated integer field given either unpacked (one
// varint) or packed (a run of varints in data).
func eachUint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
