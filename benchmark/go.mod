module mlless/benchmark

go 1.22

require mlless v0.0.0

replace mlless => ../
