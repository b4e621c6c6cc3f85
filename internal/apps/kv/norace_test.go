//go:build !race

package kv

const raceEnabled = false
