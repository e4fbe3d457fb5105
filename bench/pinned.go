package main

import "runtime"

// pinnedAnswers are the answers_fnv64a of seed 1 at full size. Bodies
// are a function of the seed, so a different hash means the program now
// answers differently: a later change that alters answers on purpose
// says so and re-pins in a change of its own. Floating-point results
// are pinned for amd64 only.
var pinnedAnswers = map[string]string{
	wFleet:     "504fdeeec8abbb13",
	wUnique:    "38ab0ad28a708b77",
	wRepeat:    "b9f33c5d1e6e843c",
	wAnalytics: "61e9b5790f52929c",
}

// checkPinned holds a seed-1 result against its pin.
func checkPinned(res *result) {
	want, ok := pinnedAnswers[res.Workload]
	if !ok || res.Seed != 1 || runtime.GOARCH != "amd64" {
		return
	}
	res.Attempted++
	if res.Answers != want {
		res.fail("answers_fnv64a %s, pinned %s for seed 1", res.Answers, want)
	}
	res.finish()
}
