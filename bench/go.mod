module github.com/onioncurve/onion/bench

go 1.24

require github.com/onioncurve/onion v0.0.0

replace github.com/onioncurve/onion => ../
