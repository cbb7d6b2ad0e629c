package agent

import (
	"strings"

	"infera/internal/hacc"
	"infera/internal/llm"
)

// AutoHinter is a scripted stand-in for the attentive human of §4.2.2: it
// approves plans as-is, and on errors that name a near-miss column it
// supplies the correct dictionary name ("using halo_count instead of
// fof_halo_count, directly providing the correct name resolves the issue").
type AutoHinter struct{}

var _ Feedback = AutoHinter{}

// ReviewPlan announces the plan and approves it without comment.
func (AutoHinter) ReviewPlan(_ llm.Plan, announce func()) (bool, string) {
	announce()
	return true, ""
}

// OnError suggests the dictionary column whose suffix matches a name quoted
// in the error message.
func (AutoHinter) OnError(_ llm.PlanStep, errMsg string) (string, bool) {
	if col, ok := CorrectColumnFor(errMsg); ok {
		return "use column " + col, true
	}
	return "", false
}

// CorrectColumnFor scans an error message for a quoted identifier and
// returns the dictionary column it is a truncation of, if any.
func CorrectColumnFor(errMsg string) (string, bool) {
	for _, quote := range []string{`"`, `'`} {
		parts := strings.Split(errMsg, quote)
		for i := 1; i < len(parts); i += 2 {
			candidate := parts[i]
			if candidate == "" || strings.ContainsAny(candidate, " \n") {
				continue
			}
			for _, cd := range hacc.ColumnDictionary() {
				if cd.Column != candidate && strings.HasSuffix(cd.Column, candidate) {
					return cd.Column, true
				}
			}
		}
	}
	return "", false
}
