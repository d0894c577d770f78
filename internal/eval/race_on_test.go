//go:build race

package eval

// raceEnabled reports that this test binary was built with -race, where
// every pipeline run is several times slower.
const raceEnabled = true
