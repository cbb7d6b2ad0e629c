package core

import "infera/internal/sqldb"

// AskWithDB is AskWith, also returning the in-memory staging database the
// question ran on, so external tests can replay its statements.
func (a *Assistant) AskWithDB(question string, opts AskOptions) (*Answer, *sqldb.DB, error) {
	return a.ask(question, opts)
}
