module rtcomp/bench

go 1.22

require rtcomp v0.0.0

replace rtcomp => ../
