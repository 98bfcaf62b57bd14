package client

// Prepared statements, client side. A Stmt pins one parsed query and its
// plan-cache shape; each Execute routes through the plan cache, so the first
// execution of a parameter-kind combination plans and caches a template, and
// later ones rebind only. Preparation is entirely client-side: the server holds no
// statement, and a remote client ships each execution's RemoteSQL in full.

import (
	"repro/internal/value"
)

// Stmt is a prepared statement: a parsed query executed repeatedly with
// different parameters.
type Stmt struct {
	c     *Client
	shape *shape
	sql   string
}

// Prepare parses a SQL query once for repeated execution.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	s, err := c.parse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, shape: s, sql: sql}, nil
}

// SQL returns the statement's source text.
func (s *Stmt) SQL() string { return s.sql }

// Execute runs the statement with one set of parameter values.
func (s *Stmt) Execute(params map[string]value.Value) (*Result, error) {
	return s.c.execute(s.shape, params)
}
