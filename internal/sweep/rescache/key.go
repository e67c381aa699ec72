package rescache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Fingerprint derives a content address from any JSON-encodable value: the
// hex SHA-256 of its canonical encoding. Callers should pass a struct whose
// fields enumerate everything that can change the cached computation's
// output; two specs collide only if they encode identically. A KeyWriter
// derives the same address from the same fields without reflection.
func Fingerprint(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Fingerprint inputs are plain structs of scalars; an encoding
		// failure is a programming error, not a runtime condition.
		panic(fmt.Sprintf("rescache: fingerprint: %v", err))
	}
	return sum(data)
}

// sum is the content address of a key preimage.
func sum(preimage []byte) string {
	h := sha256.Sum256(preimage)
	var digits [2 * sha256.Size]byte
	hex.Encode(digits[:], h[:])
	return string(digits[:])
}

// A KeyWriter writes a key preimage field by field: a JSON object whose
// bytes are exactly what json.Marshal writes for a struct with the same
// fields, names and order, so that Key equals Fingerprint of that struct
// and a store keyed either way reads the same entries. A field the struct
// tags omitempty is left out by not writing it when empty. The zero value
// is an empty object.
type KeyWriter struct{ b []byte }

// field writes the separator and name of the next field.
func (w *KeyWriter) field(name string) {
	if len(w.b) == 0 {
		w.b = append(make([]byte, 0, 256), '{') // room for a spec's key material
	} else {
		w.b = append(w.b, ',')
	}
	w.b = append(appendJSONString(w.b, name), ':')
}

// Str writes a string field.
func (w *KeyWriter) Str(name, v string) {
	w.field(name)
	w.b = appendJSONString(w.b, v)
}

// Int writes an integer field.
func (w *KeyWriter) Int(name string, v int64) {
	w.field(name)
	w.b = strconv.AppendInt(w.b, v, 10)
}

// Bool writes a boolean field.
func (w *KeyWriter) Bool(name string, v bool) {
	w.field(name)
	w.b = strconv.AppendBool(w.b, v)
}

// closed returns the object written so far, closed, in the writer's own
// buffer: the next write overwrites it.
func (w *KeyWriter) closed() []byte {
	if len(w.b) == 0 {
		return []byte("{}")
	}
	return append(w.b, '}')
}

// Preimage returns the object written so far, closed.
func (w *KeyWriter) Preimage() []byte { return bytes.Clone(w.closed()) }

// Key returns the content address of the object written so far.
func (w *KeyWriter) Key() string { return sum(w.closed()) }

// jsonSafe marks the ASCII bytes json.Marshal writes as they are.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return safe
}()

// appendJSONString appends s as json.Marshal quotes it: with <, > and &
// escaped for HTML, control characters escaped (\b, \f, \n, \r and \t by
// name), U+2028 and U+2029 escaped, and each byte of invalid UTF-8
// replaced by U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
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
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
