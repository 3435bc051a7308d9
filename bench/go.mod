module ecsdns/bench

go 1.22

// bench/layers (build tag ecsbench) times the parent module's internal
// packages from outside; the harness itself imports only the standard
// library.
require ecsdns v0.0.0

replace ecsdns => ../
