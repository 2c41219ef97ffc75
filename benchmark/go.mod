module livo/benchmark

go 1.22

require livo v0.0.0

replace livo => ../
