module kgvote/bench

go 1.22

require kgvote v0.0.0

replace kgvote => ../
