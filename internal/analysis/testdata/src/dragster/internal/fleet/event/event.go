// Package event stands in for dragster/internal/fleet/event in
// fleethook fixtures: subpackages of internal/fleet share ownership of
// budget arbitration, so the entry point is legal here too.
package event

import "dragster/internal/core"

func ApplyShare(c *core.Controller, share int) error {
	return c.SetTaskBudget(share)
}
