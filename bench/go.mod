module phish/bench

go 1.22

require phish v0.0.0

replace phish => ../
