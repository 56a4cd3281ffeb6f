module cashmere/benchmark

go 1.23

require cashmere v0.0.0

replace cashmere => ../
