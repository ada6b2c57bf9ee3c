// Package jsonenc holds the pieces every reflection-free JSON append
// encoder in this repository shares: the one string escaper, the one
// float formatter and the check that lets an already-encoded document
// be copied as it is. encoding/json defines the bytes: each function
// writes exactly what json.Marshal writes for the same value, HTML
// escaping included.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat formats a finite float as encoding/json does: the
// shortest representation, in exponent form below 1e-6 and from 1e21,
// with the exponent not padded to two digits. A non-finite float is
// the caller's to refuse; json.Marshal has no bytes for it.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// AppendString appends the contents of a string literal as
// encoding/json writes them (the quotes are the caller's): HTML-safe,
// with U+2028 and U+2029 escaped and each invalid UTF-8 byte replaced
// by the escaped replacement character U+FFFD.
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// AppendQuoted appends s as a JSON string literal, quotes included.
func AppendQuoted(b []byte, s string) []byte {
	return append(AppendString(append(b, '"'), s), '"')
}

// maxDepth bounds the nesting Verbatim follows. Deeper documents are
// declined, well inside encoding/json's own limit of 10000.
const maxDepth = 512

// Verbatim reports whether raw is one JSON value in exactly the form
// json.Marshal writes a json.RawMessage holding it: valid, with no
// insignificant whitespace, and free of the <, >, &, U+2028 and U+2029
// that Marshal would escape. Such bytes can be appended as they are.
// False means encoding/json must decide: it compacts and escapes a
// valid document, and refuses an invalid one with its own error. A
// document nested deeper than maxDepth is declined.
func Verbatim(raw []byte) bool {
	return value(raw, 0, 0) == len(raw)
}

// The checkers below each take the document and the index their token
// starts at, and return the index past it, or -1 to decline.

func value(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch b[i] {
	case '{':
		return object(b, i, depth+1)
	case '[':
		return array(b, i, depth+1)
	case '"':
		return str(b, i)
	case 't':
		return literal(b, i, "true")
	case 'f':
		return literal(b, i, "false")
	case 'n':
		return literal(b, i, "null")
	}
	return number(b, i)
}

func object(b []byte, i, depth int) int {
	if depth > maxDepth {
		return -1
	}
	i++ // '{'
	if i < len(b) && b[i] == '}' {
		return i + 1
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return -1
		}
		if i = str(b, i); i < 0 || i >= len(b) || b[i] != ':' {
			return -1
		}
		if i = value(b, i+1, depth); i < 0 || i >= len(b) {
			return -1
		}
		switch b[i] {
		case ',':
			i++
		case '}':
			return i + 1
		default:
			return -1
		}
	}
}

func array(b []byte, i, depth int) int {
	if depth > maxDepth {
		return -1
	}
	i++ // '['
	if i < len(b) && b[i] == ']' {
		return i + 1
	}
	for {
		if i = value(b, i, depth); i < 0 || i >= len(b) {
			return -1
		}
		switch b[i] {
		case ',':
			i++
		case ']':
			return i + 1
		default:
			return -1
		}
	}
}

// plain marks the bytes json.Marshal writes into a string literal as
// they are: not a control byte, quote or backslash, nor one of the HTML
// characters it escapes. AppendString reads the ASCII half. In an
// already-encoded document bytes from 0x80 pass too: valid UTF-8 or
// not, encoding/json copies them, except U+2028 and U+2029, which str
// checks for.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

func str(b []byte, i int) int {
	for i++; i < len(b); {
		c := b[i]
		if plain[c] {
			if c == 0xE2 && i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8 {
				return -1 // U+2028 or U+2029: Marshal escapes it
			}
			i++
			continue
		}
		switch c {
		case '"':
			return i + 1
		case '\\':
			if i+1 >= len(b) {
				return -1
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(b) || !hex4(b[i+2:i+6]) {
					return -1
				}
				i += 6
			default:
				return -1
			}
		default:
			return -1 // a control byte, or an HTML character
		}
	}
	return -1
}

func hex4(h []byte) bool {
	for _, c := range h {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// number accepts JSON's number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func number(b []byte, i int) int {
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// digits returns the index past the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

func literal(b []byte, i int, word string) int {
	if len(b)-i < len(word) || string(b[i:i+len(word)]) != word {
		return -1
	}
	return i + len(word)
}
