// Package sqldb implements the analytical database InferA stages query
// results in — the paper uses DuckDB for this role (§3: "Selected data is
// written to a DuckDB database, avoiding in-memory storage").
//
// Tables are held in memory, one database per question: ingestion keeps
// the staged frames by reference, so a table shares its column vectors
// with the stage cache (internal/stage) that decoded them. The memory the
// paper bounds by keeping DuckDB on disk is bounded here by that cache:
// its byte budget bounds the decoded column blocks it keeps in memory,
// and its disk tier holds what the budget evicts. Queries are a SQL
// subset (SELECT with WHERE / GROUP BY / ORDER BY / LIMIT / DISTINCT,
// arithmetic, comparison and boolean expressions, scalar math functions
// and the usual aggregates). The executor reads only the columns a query
// references and evaluates filters and aggregates block-by-block, keeping
// memory proportional to referenced columns, not table width.
package sqldb

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokKeyword
	tokSymbol // ( ) , * + - / % = != <> < <= > >=
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; identifiers as written
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "AS": true, "AND": true, "OR": true,
	"NOT": true, "IN": true, "BETWEEN": true, "DISTINCT": true, "ASC": true,
	"DESC": true, "COUNT": true, "SUM": true, "AVG": true, "MIN": true,
	"MAX": true, "STDDEV": true, "MEDIAN": true, "NULL": true, "LIKE": true,
}

// SyntaxError reports a lexical or grammatical error with its position; the
// message shape feeds the QA repair loop.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("SQL syntax error at offset %d: %s", e.Pos, e.Msg)
}

func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsDigit(rune(c)) || (c == '.' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			start := i
			for i < n && (unicode.IsDigit(rune(input[i])) || input[i] == '.' ||
				input[i] == 'e' || input[i] == 'E' ||
				((input[i] == '+' || input[i] == '-') && i > start && (input[i-1] == 'e' || input[i-1] == 'E'))) {
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= n {
					return nil, &SyntaxError{start, "unterminated string literal"}
				}
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case c == '"':
			start := i
			i++
			j := strings.IndexByte(input[i:], '"')
			if j < 0 {
				return nil, &SyntaxError{start, "unterminated quoted identifier"}
			}
			toks = append(toks, token{tokIdent, input[i : i+j], start})
			i += j + 1
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		default:
			start := i
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "!=", "<>", "<=", ">=":
				toks = append(toks, token{tokSymbol, two, start})
				i += 2
				continue
			}
			switch c {
			case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>':
				toks = append(toks, token{tokSymbol, string(c), start})
				i++
			default:
				return nil, &SyntaxError{i, fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}
