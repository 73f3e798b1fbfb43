module ncast/benchmark

go 1.22

require ncast v0.0.0

replace ncast => ../
