module ldcdft/bench

go 1.22

require ldcdft v0.0.0

replace ldcdft => ../
