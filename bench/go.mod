module drainnas/bench

go 1.22

require drainnas v0.0.0

replace drainnas => ../
