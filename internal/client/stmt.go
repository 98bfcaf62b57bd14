package client

// Prepared statements, client side. A Stmt pins one SQL text and the AST
// Prepare parsed from it; each Execute routes through the plan cache under
// the text's key, so the first execution of a parameter-kind combination
// plans and caches a template, and later ones rebind only. Preparation is
// entirely client-side: the server holds no statement, and a remote client
// ships each execution's RemoteSQL in full.

import (
	"repro/internal/ast"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

// Stmt is a prepared statement: a parsed query executed repeatedly with
// different parameters.
type Stmt struct {
	c   *Client
	q   *ast.Query // read-only: planning clones before it mutates
	sql string
}

// Prepare parses a SQL query once for repeated execution.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, q: q, sql: sql}, nil
}

// SQL returns the statement's source text.
func (s *Stmt) SQL() string { return s.sql }

// Execute runs the statement with one set of parameter values.
func (s *Stmt) Execute(params map[string]value.Value) (*Result, error) {
	return s.c.execute(s.sql, s.q, params)
}
