module ninf/benchmark

go 1.22

require ninf v0.0.0

replace ninf => ../
