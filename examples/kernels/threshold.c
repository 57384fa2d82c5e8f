/* Four running statistics of a signal, split by a threshold: both
   branches of the if/else update all four, so if-conversion merges four
   scalars at once (declaration order: x, y, z, w). */
void main() {
    int a[8];
    int i;
    int x;
    int y;
    int z;
    int w;
    x = 0;
    y = 0;
    z = 1;
    w = 0;
    for (i = 0; i < 8; i = i + 1) {
        if (a[i] > 3) {
            x = x + a[i];
            y = y + 1;
            z = z * 2;
            w = w - a[i];
        } else {
            x = x - 1;
            y = y + a[i];
            z = z + 3;
            w = w ^ a[i];
        }
    }
}
