module volley/benchmark

go 1.22

require volley v0.0.0

replace volley => ../
