module twohot/bench

go 1.24

require twohot v0.0.0

replace twohot => ../
