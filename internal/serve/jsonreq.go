package serve

import (
	"bytes"
	"strconv"
)

// decodeInferJSON is the one-pass decoder for canonical /v1/infer JSON
// bodies. It parses body straight into js — Input appended onto its
// existing backing array, Sample/Label written through their pointers —
// and reports whether body lay in the canonical subset:
//
//   - one top-level object, JSON whitespace anywhere the grammar allows;
//   - keys byte-exact "input", "sample", "label", "timeout_ms" or "mode"
//     (no escapes), each at most once, in any order;
//   - input: an array of JSON numbers, each checked against the strict
//     number grammar and then converted by strconv.ParseFloat(s, 64),
//     the call encoding/json makes, so values match it bit for bit;
//   - sample, label, timeout_ms: JSON integers of at most 18 digits
//     (no fraction, no exponent, so they always fit an int);
//   - mode: a string of printable ASCII without a backslash;
//   - nothing but whitespace after the closing brace.
//
// Anything else — null, an unknown, escaped or case-folded key, a
// duplicate, a ParseFloat range error, a leading zero, trailing data —
// returns false with js partly written; the caller resets js and hands
// the body to json.Unmarshal, which owns every error message. So this
// path never produces an error of its own.
func decodeInferJSON(body []byte, js *InferRequest) bool {
	i := skipWS(body, 0)
	if i == len(body) || body[i] != '{' {
		return false
	}
	i = skipWS(body, i+1)
	if i < len(body) && body[i] == '}' {
		return skipWS(body, i+1) == len(body)
	}
	var seen uint8
	for {
		if i == len(body) || body[i] != '"' {
			return false
		}
		n := bytes.IndexByte(body[i+1:], '"')
		if n < 0 {
			return false
		}
		key := body[i+1 : i+1+n]
		i = skipWS(body, i+2+n)
		if i == len(body) || body[i] != ':' {
			return false
		}
		i = skipWS(body, i+1)

		// A duplicate is parsed before it is caught; the caller's reset
		// discards what it wrote.
		var bit uint8
		ok := false
		switch string(key) {
		case "input":
			bit = 1
			js.Input, i, ok = parseFloatArray(body, i, js.Input[:0])
		case "sample":
			bit = 2
			*js.Sample, i, ok = parseInt(body, i)
		case "label":
			bit = 4
			*js.Label, i, ok = parseInt(body, i)
		case "timeout_ms":
			bit = 8
			js.TimeoutMs, i, ok = parseInt(body, i)
		case "mode":
			bit = 16
			js.Mode, i, ok = parseMode(body, i)
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit

		i = skipWS(body, i)
		if i == len(body) {
			return false
		}
		switch body[i] {
		case ',':
			i = skipWS(body, i+1)
		case '}':
			return skipWS(body, i+1) == len(body)
		default:
			return false
		}
	}
}

// skipWS returns the index of the first non-whitespace byte of b at or
// after i (len(b) if none), using JSON's four whitespace bytes.
func skipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// parseFloatArray appends the JSON number array starting at b[i] to dst.
func parseFloatArray(b []byte, i int, dst []float64) ([]float64, int, bool) {
	if i == len(b) || b[i] != '[' {
		return dst, i, false
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == ']' {
		return dst, i + 1, true
	}
	for {
		end, ok := scanNumber(b, i)
		if !ok {
			return dst, i, false
		}
		v, err := strconv.ParseFloat(string(b[i:end]), 64)
		if err != nil {
			return dst, i, false
		}
		dst = append(dst, v)
		i = skipWS(b, end)
		if i == len(b) {
			return dst, i, false
		}
		switch b[i] {
		case ',':
			i = skipWS(b, i+1)
		case ']':
			return dst, i + 1, true
		default:
			return dst, i, false
		}
	}
}

// scanNumber returns the end of the JSON number starting at b[i]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return i, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return j, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return j, false
		}
		i = j
	}
	return i, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// parseInt parses the JSON integer starting at b[i]: -?(0|[1-9][0-9]*)
// of at most 18 digits, which always fits an int without overflow. A
// fraction or exponent is left unconsumed, so the caller's structural
// check rejects it.
func parseInt(b []byte, i int) (int, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	end := skipDigits(b, i)
	if end == start || end-start > 18 || (b[start] == '0' && end-start > 1) {
		return 0, i, false
	}
	n := 0
	for _, c := range b[start:end] {
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, end, true
}

// parseMode parses the JSON string starting at b[i] when it is
// printable ASCII without escapes, returning the serving-mode constants
// for the two known values so the common case does not allocate.
func parseMode(b []byte, i int) (string, int, bool) {
	if i == len(b) || b[i] != '"' {
		return "", i, false
	}
	start := i + 1
	for j := start; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			switch s := b[start:j]; string(s) {
			case ModeLatency:
				return ModeLatency, j + 1, true
			case ModeThroughput:
				return ModeThroughput, j + 1, true
			default:
				return string(s), j + 1, true
			}
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", j, false
		}
	}
	return "", len(b), false
}
