package main

import (
	"errors"
	"sort"

	"flock/internal/cluster"
	"flock/internal/core"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between order statistics; xs is reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// span is one traced call: a named interval, the span that caused it
// (index into the same log, -1 for a root) and the request it belongs to.
type span struct {
	name       uint8
	parent     int32
	req        uint64
	start, end int64 // ns since the run's epoch
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children count once.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			covered += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		covered += curB - curA
	}
	return s.end - s.start - covered
}

// Failure causes, in the order classify tests them.
const (
	causeQPBroken = iota
	causeTimeout
	causeOverloaded
	causeNoRoute
	causeRetriesExhausted
	causeOther
	numCauses
)

var causeNames = [numCauses]string{"qp_broken", "timeout", "overloaded", "no_route", "retries_exhausted", "other"}

// errRetriesExhausted marks a transaction that was still aborting when
// its retry allowance ran out.
var errRetriesExhausted = errors.New("txn: retries exhausted")

// classify buckets a failed op's error by cause.
func classify(err error) int {
	switch {
	case errors.Is(err, core.ErrQPBroken):
		return causeQPBroken
	case errors.Is(err, core.ErrTimeout):
		return causeTimeout
	case errors.Is(err, core.ErrOverloaded):
		return causeOverloaded
	case errors.Is(err, cluster.ErrNoRoute):
		return causeNoRoute
	case errors.Is(err, errRetriesExhausted):
		return causeRetriesExhausted
	default:
		return causeOther
	}
}
