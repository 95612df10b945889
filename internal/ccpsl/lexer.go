package ccpsl

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokIdent tokenKind = iota
	tokLBrace
	tokRBrace
	tokArrow
	tokComma
	tokNewline
	tokEOF
)

func (k tokenKind) String() string {
	switch k {
	case tokIdent:
		return "identifier"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokArrow:
		return "'->'"
	case tokComma:
		return "','"
	case tokNewline:
		return "newline"
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	line int
}

// Error is a specification error with a source line number. Err, when
// set, is the typed cause (e.g. *fsm.DuplicateInvariantError).
type Error struct {
	Line int
	Msg  string
	Err  error
}

func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("ccpsl: line %d: %s", e.Line, e.Msg)
	}
	return "ccpsl: " + e.Msg
}

func (e *Error) Unwrap() error { return e.Err }

func errf(line int, format string, args ...interface{}) *Error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// lex tokenizes the specification. Identifiers are letter-led words that may
// contain letters, digits, '-' and '_'. Newlines are significant (statement
// terminators); consecutive newlines collapse into one token.
func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	emit := func(k tokenKind, text string) {
		// Collapse runs of newlines and suppress leading newlines.
		if k == tokNewline {
			if len(toks) == 0 || toks[len(toks)-1].kind == tokNewline ||
				toks[len(toks)-1].kind == tokLBrace {
				return
			}
		}
		toks = append(toks, token{kind: k, text: text, line: line})
	}

	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			emit(tokNewline, "\\n")
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '{':
			emit(tokLBrace, "{")
			i++
		case c == '}':
			// A closing brace also terminates the statement before it.
			emit(tokNewline, "\\n")
			emit(tokRBrace, "}")
			i++
		case c == ',':
			emit(tokComma, ",")
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '>':
			emit(tokArrow, "->")
			i += 2
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				// Do not swallow "->" into an identifier.
				if src[j] == '-' && j+1 < len(src) && src[j+1] == '>' {
					break
				}
				j++
			}
			emit(tokIdent, src[i:j])
			i = j
		default:
			return nil, errf(line, "unexpected character %q", string(c))
		}
	}
	emit(tokNewline, "\\n")
	toks = append(toks, token{kind: tokEOF, text: "", line: line})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '-'
}

// quoteList renders identifiers for error messages.
func quoteList(words []string) string {
	qs := make([]string, len(words))
	for i, w := range words {
		qs[i] = fmt.Sprintf("%q", w)
	}
	return strings.Join(qs, ", ")
}
