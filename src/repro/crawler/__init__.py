"""Active DHT crawler baseline.

The paper compares its passive horizons against the public results of the
Weizenbaum-Institut crawler (and mentions the Nebula crawler).  Such crawlers
walk the Kademlia DHT: starting from the bootstrap peers they repeatedly ask
every reachable DHT-Server for the contents of its routing table until no new
peers appear.  Two properties matter for the comparison in Fig. 2:

* a crawler only ever sees **DHT-Servers** (clients are not in routing tables);
* each crawl is a **fresh snapshot** — peers that left the network since the
  previous crawl disappear from the results, whereas the passive node's
  peerstore keeps them forever.
"""
