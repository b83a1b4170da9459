package sub

var Y = 2
