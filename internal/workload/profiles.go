package workload

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Typed trace-validation errors. Callers branch on these with errors.Is;
// the wrapped message carries the row/field detail.
var (
	// ErrTraceEmpty reports a trace with no rows (or rows with no
	// sources) — nothing to replay.
	ErrTraceEmpty = errors.New("workload: empty trace")
	// ErrTraceRagged reports rows that disagree on the source count.
	ErrTraceRagged = errors.New("workload: ragged trace")
	// ErrTraceBadValue reports a rate that is not a finite non-negative
	// number (NaN, ±Inf, negative, or unparseable).
	ErrTraceBadValue = errors.New("workload: bad trace value")
)

// Sinusoid models the gradual diurnal drift the paper's introduction
// motivates: rates oscillate around base with the given amplitude and
// period (in slots). amplitude must leave rates non-negative.
func Sinusoid(base, amplitude []float64, periodSlots int) (RateFunc, error) {
	if len(base) == 0 || len(base) != len(amplitude) {
		return nil, errors.New("workload: Sinusoid needs matching non-empty base and amplitude")
	}
	if periodSlots < 2 {
		return nil, fmt.Errorf("workload: Sinusoid period %d must be ≥ 2 slots", periodSlots)
	}
	for i := range base {
		if base[i] < 0 || amplitude[i] < 0 || amplitude[i] > base[i] {
			return nil, fmt.Errorf("workload: Sinusoid source %d: base %v amplitude %v invalid", i, base[i], amplitude[i])
		}
	}
	b := append([]float64(nil), base...)
	a := append([]float64(nil), amplitude...)
	out := make([]float64, len(b))
	return func(slot, sec int) []float64 {
		// Continuous phase across the slot so drift is truly gradual.
		phase := 2 * math.Pi * (float64(slot) + float64(sec)/86400) / float64(periodSlots)
		for i := range out {
			out[i] = b[i] + a[i]*math.Sin(phase)
		}
		return out
	}, nil
}

// Trace replays an explicit per-slot rate schedule, clamping to the last
// entry when the run outlives the trace. Each row must cover every
// source. Validation failures wrap ErrTraceEmpty / ErrTraceRagged /
// ErrTraceBadValue.
func Trace(rows [][]float64) (RateFunc, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: no rows", ErrTraceEmpty)
	}
	n := len(rows[0])
	if n == 0 {
		return nil, fmt.Errorf("%w: rows carry no sources", ErrTraceEmpty)
	}
	cp := make([][]float64, len(rows))
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("%w: row %d has %d rates, want %d", ErrTraceRagged, i, len(r), n)
		}
		for j, v := range r {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: row %d rate %d = %v", ErrTraceBadValue, i, j, v)
			}
		}
		cp[i] = append([]float64(nil), r...)
	}
	return func(slot, _ int) []float64 {
		if slot >= len(cp) {
			return cp[len(cp)-1]
		}
		if slot < 0 {
			return cp[0]
		}
		return cp[slot]
	}, nil
}

// LoadTraceCSV parses a rate trace with one row per slot and one column
// per source (plain numbers, no header). Lines starting with '#' are
// skipped. Malformed input wraps the same typed errors as Trace:
// ErrTraceRagged for rows that disagree on the column count,
// ErrTraceBadValue for fields that do not parse to a finite non-negative
// number, ErrTraceEmpty when nothing remains.
func LoadTraceCSV(r io.Reader) (RateFunc, error) {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.TrimLeadingSpace = true
	var rows [][]float64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			if errors.Is(err, csv.ErrFieldCount) {
				return nil, fmt.Errorf("%w: %v", ErrTraceRagged, err)
			}
			return nil, fmt.Errorf("workload: reading trace CSV: %w", err)
		}
		row := make([]float64, len(rec))
		for i, f := range rec {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: field %q: %v", ErrTraceBadValue, f, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return Trace(rows)
}

// Scale composes a base profile with a time-varying multiplier — the
// trace-replay building block: a diurnal (or replayed-CSV) base shaped by
// an event multiplier like BlackFridayMultiplier.
func Scale(base RateFunc, mult func(slot, sec int) float64) (RateFunc, error) {
	if base == nil || mult == nil {
		return nil, errors.New("workload: Scale needs a base profile and a multiplier")
	}
	var out []float64
	return func(slot, sec int) []float64 {
		rates := base(slot, sec)
		m := mult(slot, sec)
		if cap(out) < len(rates) {
			out = make([]float64, len(rates))
		}
		out = out[:len(rates)]
		for i, r := range rates {
			out[i] = r * m
		}
		return out
	}, nil
}

// BlackFridayMultiplier models an anticipated sales event: load builds
// smoothly (smoothstep) to peak× over buildSlots, plateaus for saleSlots,
// then winds down symmetrically over decaySlots.
func BlackFridayMultiplier(startSlot, buildSlots, saleSlots, decaySlots int, peak float64) (func(slot, sec int) float64, error) {
	if startSlot < 0 || buildSlots < 0 || saleSlots < 1 || decaySlots < 0 {
		return nil, fmt.Errorf("workload: black friday start %d build %d sale %d decay %d invalid", startSlot, buildSlots, saleSlots, decaySlots)
	}
	if peak < 1 || math.IsNaN(peak) || math.IsInf(peak, 0) {
		return nil, fmt.Errorf("workload: black friday peak %v must be a finite multiplier ≥ 1", peak)
	}
	smooth := func(u float64) float64 { return u * u * (3 - 2*u) }
	return func(slot, _ int) float64 {
		t := slot - startSlot
		switch {
		case t < 0:
			return 1
		case t < buildSlots:
			return 1 + (peak-1)*smooth(float64(t+1)/float64(buildSlots+1))
		case t < buildSlots+saleSlots:
			return peak
		case t < buildSlots+saleSlots+decaySlots:
			return 1 + (peak-1)*smooth(1-float64(t-buildSlots-saleSlots+1)/float64(decaySlots+1))
		default:
			return 1
		}
	}, nil
}

// BlackFriday applies BlackFridayMultiplier to a base profile.
func BlackFriday(base RateFunc, startSlot, buildSlots, saleSlots, decaySlots int, peak float64) (RateFunc, error) {
	m, err := BlackFridayMultiplier(startSlot, buildSlots, saleSlots, decaySlots, peak)
	if err != nil {
		return nil, err
	}
	return Scale(base, m)
}
