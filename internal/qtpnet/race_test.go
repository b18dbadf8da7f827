//go:build race

package qtpnet

func init() { raceEnabled = true }
