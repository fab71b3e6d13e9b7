module virtualwire/bench

go 1.22

require virtualwire v0.0.0

replace virtualwire => ../
