//go:build race

package qtp

func init() { raceEnabled = true }
