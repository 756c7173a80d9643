module parallaft/benchmark

go 1.22

require parallaft v0.0.0

replace parallaft => ../
