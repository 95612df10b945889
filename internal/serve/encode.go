package serve

import (
	"strconv"
	"unicode/utf8"
)

// The report encoder. A Report is rendered to bytes once per verdict, by
// appendReport, and from then on only moved: batch rows and job statuses
// splice the cached bytes in through appendCompact instead of re-parsing
// them. Every rendering here is byte-for-byte what encoding/json produces
// for the same value (MarshalIndent with two-space indent for a report,
// json.Encoder for a batch row, json.Marshal for a job status), which the
// parity table and the fuzz targets in encode_test.go pin against
// encoding/json itself.

// strEsc classifies each byte of a string value the way encoding/json's
// HTML-safe string encoder treats it: 0 is copied as is, a letter is the
// short escape \<letter> ('"' and '\\' escape as themselves), 'u' is the
// \u00XX form, and utf8Lead starts a non-ASCII sequence that is decoded
// to tell valid UTF-8, which is copied, from invalid bytes and U+2028 and
// U+2029, which are escaped.
var strEsc = func() (t [256]byte) {
	for c := 0; c < 0x20; c++ {
		t[c] = 'u'
	}
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	t['"'], t['\\'] = '"', '\\'
	t['<'], t['>'], t['&'] = 'u', 'u', 'u'
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = utf8Lead
	}
	return t
}()

const utf8Lead = 1

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal with encoding/json's
// HTML-safe escaping.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		esc := strEsc[s[i]]
		if esc == 0 {
			i++
			continue
		}
		if esc != utf8Lead {
			dst = append(dst, s[start:i]...)
			if esc == 'u' {
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[s[i]>>4], hexDigits[s[i]&0xF])
			} else {
				dst = append(dst, '\\', esc)
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Indentation of the report's nesting levels: fields, list items and
// violation fields, violation list items.
const (
	ind1 = "\n  "
	ind2 = "\n    "
	ind3 = "\n      "
	ind4 = "\n        "
)

// appendReport appends rep exactly as json.MarshalIndent(rep, "", "  ")
// renders it, followed by a newline: the report's wire and cache form.
func appendReport(dst []byte, rep *Report) []byte {
	dst = append(dst, "{"+ind1+`"schema": `...)
	dst = strconv.AppendInt(dst, int64(rep.Schema), 10)
	dst = append(dst, ","+ind1+`"protocol": `...)
	dst = appendString(dst, rep.Protocol)
	dst = append(dst, ","+ind1+`"characteristic": `...)
	dst = appendString(dst, rep.Characteristic)
	dst = append(dst, ","+ind1+`"engine": `...)
	dst = appendString(dst, rep.Engine)
	if rep.N != 0 {
		dst = append(dst, ","+ind1+`"n": `...)
		dst = strconv.AppendInt(dst, int64(rep.N), 10)
	}
	if rep.Strict {
		dst = append(dst, ","+ind1+`"strict": true`...)
	}
	if rep.MaxStates != 0 {
		dst = append(dst, ","+ind1+`"max_states": `...)
		dst = strconv.AppendInt(dst, int64(rep.MaxStates), 10)
	}
	if rep.Workers != 0 {
		dst = append(dst, ","+ind1+`"workers": `...)
		dst = strconv.AppendInt(dst, int64(rep.Workers), 10)
	}
	dst = append(dst, ","+ind1+`"cache_key": `...)
	dst = appendString(dst, rep.CacheKey)
	dst = append(dst, ","+ind1+`"verdict": `...)
	dst = appendString(dst, rep.Verdict)
	dst = append(dst, ","+ind1+`"essential": `...)
	dst = strconv.AppendInt(dst, int64(rep.Essential), 10)
	dst = append(dst, ","+ind1+`"visits": `...)
	dst = strconv.AppendInt(dst, int64(rep.Visits), 10)
	if len(rep.EssentialStates) > 0 {
		dst = append(dst, ","+ind1+`"essential_states": `...)
		dst = appendStringList(dst, rep.EssentialStates, ind2, ind1)
	}
	if len(rep.Violations) > 0 {
		dst = append(dst, ","+ind1+`"violations": [`...)
		for i := range rep.Violations {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendViolation(dst, &rep.Violations[i])
		}
		dst = append(dst, ind1+"]"...)
	}
	return append(dst, "\n}\n"...)
}

// appendViolation appends one element of the report's violations list.
func appendViolation(dst []byte, v *ViolationReport) []byte {
	dst = append(dst, ind2+"{"+ind3+`"state": `...)
	dst = appendString(dst, v.State)
	dst = append(dst, ","+ind3+`"kinds": `...)
	if v.Kinds == nil {
		dst = append(dst, "null"...)
	} else {
		dst = appendStringList(dst, v.Kinds, ind4, ind3)
	}
	if len(v.Witness) > 0 {
		dst = append(dst, ","+ind3+`"witness": `...)
		dst = appendStringList(dst, v.Witness, ind4, ind3)
	}
	dst = append(dst, ","+ind3+`"confirmed": `...)
	dst = strconv.AppendBool(dst, v.Confirmed)
	if v.AuditNote != "" {
		dst = append(dst, ","+ind3+`"audit_note": `...)
		dst = appendString(dst, v.AuditNote)
	}
	return append(dst, ind2+"}"...)
}

// appendStringList appends an indented array of strings: each item on its
// own line at itemInd, the closing bracket at closeInd, and an empty list
// as [].
func appendStringList(dst []byte, list []string, itemInd, closeInd string) []byte {
	if len(list) == 0 {
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i, s := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, itemInd...)
		dst = appendString(dst, s)
	}
	dst = append(dst, closeInd...)
	return append(dst, ']')
}

// reportSizeHint bounds appendReport's output from above, so
// encodeReport allocates once, for reports whose strings need no escapes
// but the one ">" of each witness step's " -> ".
func reportSizeHint(rep *Report) int {
	n := 384 + len(rep.Protocol) + len(rep.Characteristic) + len(rep.Engine) +
		len(rep.CacheKey) + len(rep.Verdict)
	for _, s := range rep.EssentialStates {
		n += len(s) + len(ind2) + 3
	}
	for i := range rep.Violations {
		v := &rep.Violations[i]
		n += 128 + len(v.State) + len(v.AuditNote)
		for _, s := range v.Kinds {
			n += len(s) + len(ind4) + 3
		}
		for _, s := range v.Witness {
			n += len(s) + len(ind4) + 3 + len(`\u003e`) - 1
		}
	}
	return n
}

// encodeReport is the single rendering point for Report bytes.
func encodeReport(rep *Report) []byte {
	return appendReport(make([]byte, 0, reportSizeHint(rep)), rep)
}

// strStop marks the bytes appendCompact must act on inside a string
// literal: its closing quote, an escape, the HTML-unsafe bytes and the
// lead byte of U+2028 and U+2029.
var strStop = [256]bool{'"': true, '\\': true, '<': true, '>': true, '&': true, 0xE2: true}

// appendCompact appends the valid JSON document src with insignificant
// whitespace removed and <, >, &, U+2028 and U+2029 escaped inside
// strings: what json.Encoder writes for a json.RawMessage holding src,
// without the trailing newline. It is how cached report bytes are
// spliced into rows and statuses. src must be valid JSON (every payload
// the cache or a peer hands out is checked on entry).
func appendCompact(dst, src []byte) []byte {
	start := 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case ' ', '\t', '\n', '\r':
			dst = append(dst, src[start:i]...)
			for i+1 < len(src) && isSpace(src[i+1]) {
				i++
			}
			start = i + 1
		case '"':
			for i++; i < len(src); i++ {
				c := src[i]
				if !strStop[c] {
					continue
				}
				if c == '"' {
					break
				}
				switch c {
				case '\\':
					i++ // an escaped byte neither ends the string nor needs escaping
				case 0xE2:
					if i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8 {
						dst = append(dst, src[start:i]...)
						dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[src[i+2]&0xF])
						i += 2
						start = i + 1
					}
				default: // '<', '>', '&'
					dst = append(dst, src[start:i]...)
					dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
					start = i + 1
				}
			}
		}
	}
	return append(dst, src[start:]...)
}

// isSpace reports JSON's insignificant whitespace.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// appendBatchLine appends one NDJSON row of a batch stream, the report
// spliced in compact: what json.Encoder.Encode(line) writes.
func appendBatchLine(dst []byte, line *BatchLine) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(line.Index), 10)
	dst = append(dst, `,"protocol":`...)
	dst = appendString(dst, line.Protocol)
	dst = append(dst, `,"cache_key":`...)
	dst = appendString(dst, line.CacheKey)
	dst = append(dst, `,"state":`...)
	dst = appendString(dst, line.State)
	dst = append(dst, `,"disposition":`...)
	dst = appendString(dst, line.Disposition)
	dst = append(dst, `,"attempts":`...)
	dst = strconv.AppendInt(dst, int64(line.Attempts), 10)
	if line.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, line.Error)
	}
	if len(line.Report) > 0 {
		dst = append(dst, `,"report":`...)
		dst = appendCompact(dst, line.Report)
	}
	return append(dst, "}\n"...)
}

// appendJobStatus appends a job status document, the report spliced in
// compact: what json.Marshal(st) renders, plus a newline.
func appendJobStatus(dst []byte, st *JobStatus) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, st.ID)
	dst = append(dst, `,"state":`...)
	dst = appendString(dst, st.State)
	dst = append(dst, `,"cache_key":`...)
	dst = appendString(dst, st.CacheKey)
	if st.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if st.Coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	if st.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, st.Error)
	}
	if len(st.Report) > 0 {
		dst = append(dst, `,"report":`...)
		dst = appendCompact(dst, st.Report)
	}
	return append(dst, "}\n"...)
}

// rowOverhead covers a row's or status's fields besides the report and
// the error text.
const rowOverhead = 256
