package monomi

import "repro/internal/sqlparser"

// ValidateSQL reports whether the dialect accepts the statement, returning
// the parse error if not. Useful for pre-flighting workload files.
func ValidateSQL(sql string) error {
	_, err := sqlparser.Parse(sql)
	return err
}
