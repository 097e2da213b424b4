module cbvr/bench

go 1.22

require cbvr v0.0.0

replace cbvr => ../
