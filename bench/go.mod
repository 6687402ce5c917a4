module syriafilter/bench

go 1.22

require syriafilter v0.0.0

replace syriafilter => ../
