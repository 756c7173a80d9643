
var n = 0;
var s = 0;
while (n < 1000) { s = s + n; n = n + 1; }
print("sum ");
printnum(s);
exit(s & 255);
