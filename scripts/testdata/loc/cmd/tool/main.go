package main

func main() {
}
